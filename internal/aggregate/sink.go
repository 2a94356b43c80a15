package aggregate

import (
	"strconv"
	"strings"

	"damaris/internal/metadata"
)

// EpochWriter is the storage-facing seam the aggregator commits merged
// epochs through. core.DSFPersister implements it: one call writes one DSF
// object (atomically published by the backend) carrying the given entries
// and file-level attributes.
type EpochWriter interface {
	PersistAsWith(name string, entries []*metadata.Entry, attrs map[string]string) error
}

// StoreSink commits merged epochs as DSF objects through an EpochWriter.
type StoreSink struct {
	// Writer persists each merged epoch.
	Writer EpochWriter
	// ObjectName names the per-epoch object (e.g. "node0003_it000005.dsf").
	ObjectName func(epoch int64) string
	// MemberAttr is the attribute key listing the contributing member ids
	// ("servers" for the node's dedicated cores) — how dsf-inspect shows
	// which ranks fed a merged object.
	MemberAttr string
	// Mode is recorded as the "aggregate" attribute ("core").
	Mode string
}

// CommitEpoch writes one merged epoch as a single DSF object. An epoch with
// no data commits nothing (and is still acknowledged): the one-object-per-
// epoch invariant is about data-bearing epochs, not placeholders.
func (s *StoreSink) CommitEpoch(epoch int64, members []int, entries []*metadata.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = strconv.Itoa(m)
	}
	attrs := map[string]string{
		"writer":     "damaris-aggregator",
		"aggregate":  s.Mode,
		s.MemberAttr: strings.Join(ids, ","),
	}
	return s.Writer.PersistAsWith(s.ObjectName(epoch), entries, attrs)
}

// Close is a no-op: the writer's backend lifecycle belongs to the server
// that opened it.
func (s *StoreSink) Close() error { return nil }
