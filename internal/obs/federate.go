package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric federation: merging the Sample sets of N per-rank (or per-replica)
// planes into one deterministic fleet view. The merge is pure sample
// algebra — no second set of counters — and is exact because every plane
// shares the same instrument semantics:
//
//   - counters sum;
//   - histogram series sum bucket-wise (`_bucket`, `_count`, `_sum`; the
//     fixed shared bucket bounds make the bucket merge exact, and the
//     fixed-point `_sum` makes the float addition order-free), while the
//     `_min`/`_max` companions take the fleet min/max;
//   - gauges are not summable across ranks (a queue depth of 3 on two
//     ranks is not a depth of 6), so each rank's value is kept as a
//     labeled per-rank series (label `rank`) and the fleet view adds
//     `<name>_min`/`<name>_max` gauge rollups;
//   - summary quantile series (label `quantile`) likewise cannot be
//     merged exactly, so they stay per-rank; their `_sum`/`_count`
//     companions sum and `_min`/`_max` take fleet extremes — Spread
//     (max−min) stays exact fleet-wide.
//
// Determinism: sources are sorted by rank id before merging, so the output
// — and therefore the /fleet/metrics bytes — is identical regardless of
// the order scrapes arrive in. Rank ids must be unique per source;
// duplicates produce colliding per-rank series, which CheckSamples flags.

// FedRankLabel is the label key federation adds to per-rank series.
const FedRankLabel = "rank"

// FedSource is one plane's contribution to a federated merge: its rank id
// (a world rank, or a replica index for gateway fleets) and its gathered
// samples.
type FedSource struct {
	Rank    string
	Samples []Sample
}

type mergeOp uint8

const (
	opPerRank mergeOp = iota
	opSum
	opMin
	opMax
)

// opFor classifies one sample under the federation algebra.
func opFor(s Sample) mergeOp {
	switch s.Kind {
	case KindCounter:
		return opSum
	case KindHistogram:
		switch {
		case strings.HasSuffix(s.Name, "_min"):
			return opMin
		case strings.HasSuffix(s.Name, "_max"):
			return opMax
		}
		return opSum
	case KindSummary:
		if hasLabel(s.Labels, "quantile") {
			return opPerRank
		}
		switch {
		case strings.HasSuffix(s.Name, "_min"):
			return opMin
		case strings.HasSuffix(s.Name, "_max"):
			return opMax
		}
		return opSum
	default: // gauges and unknown kinds stay per-rank
		return opPerRank
	}
}

func hasLabel(labels []string, key string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if labels[i] == key {
			return true
		}
	}
	return false
}

// rankLess orders source ranks: numeric ids numerically (so rank 10 sorts
// after rank 2), everything else lexically, numeric before non-numeric.
func rankLess(a, b string) bool {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	switch {
	case aerr == nil && berr == nil:
		return ai < bi
	case aerr == nil:
		return true
	case berr == nil:
		return false
	}
	return a < b
}

// Federate merges the sample sets of N sources into one fleet sample set
// under the federation algebra documented above. The output is sorted in
// canonical (name, labels) exposition order and is a pure function of the
// source *set* — shuffling the input order cannot change a byte of the
// rendering.
func Federate(sources []FedSource) []Sample {
	srcs := append([]FedSource(nil), sources...)
	sort.SliceStable(srcs, func(i, j int) bool { return rankLess(srcs[i].Rank, srcs[j].Rank) })

	merged := make(map[string]*Sample)
	fold := func(s Sample, op mergeOp) {
		key := s.Name + "\x01" + labelKey(s.Labels)
		a, ok := merged[key]
		if !ok {
			merged[key] = &s
			return
		}
		switch op {
		case opSum:
			a.Value += s.Value
		case opMin:
			if s.Value < a.Value {
				a.Value = s.Value
			}
		case opMax:
			if s.Value > a.Value {
				a.Value = s.Value
			}
		}
	}

	var out []Sample
	for _, src := range srcs {
		for _, s := range src.Samples {
			op := opFor(s)
			if op != opPerRank {
				fold(s, op)
				continue
			}
			ps := s
			ps.Labels = sortLabels(append(append(make([]string, 0, len(s.Labels)+2), s.Labels...),
				FedRankLabel, src.Rank))
			out = append(out, ps)
			if s.Kind == KindGauge {
				lo := Sample{Name: s.Name + "_min", Labels: s.Labels, Kind: KindGauge, Value: s.Value}
				hi := Sample{Name: s.Name + "_max", Labels: s.Labels, Kind: KindGauge, Value: s.Value}
				fold(lo, opMin)
				fold(hi, opMax)
			}
		}
	}
	for _, a := range merged {
		out = append(out, *a)
	}
	// Every surviving (name, labels) pair is unique — per-rank series carry
	// the rank label, folded series are map-deduplicated — so this sort is
	// total and the output order is deterministic despite map iteration.
	sortSamples(out)
	return out
}

// Federator gathers N sources (in-process registries, custom gather
// functions, or remote /metrics.json scrapes) and serves their federated
// merge. Safe for concurrent use; sources are normally added during wiring
// but adding mid-serve (damaris-run registers each dedicated core as it
// deploys) is fine.
type Federator struct {
	mu      sync.Mutex
	sources []fedSource
	client  *http.Client
}

type fedSource struct {
	rank   string
	gather func() ([]Sample, error)
}

// NewFederator builds an empty federator.
func NewFederator() *Federator {
	return &Federator{client: &http.Client{Timeout: 5 * time.Second}}
}

// AddRegistry adds an in-process registry as a source — how single-binary
// runs federate their rank-local registries without any scraping.
func (f *Federator) AddRegistry(rank string, reg *Registry) {
	f.AddFunc(rank, func() ([]Sample, error) { return reg.Gather(), nil })
}

// AddFunc adds a source backed by an arbitrary gather function.
func (f *Federator) AddFunc(rank string, gather func() ([]Sample, error)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.sources = append(f.sources, fedSource{rank: rank, gather: gather})
	f.mu.Unlock()
}

// maxScrapeBytes caps the /metrics.json document AddURL reads from a peer,
// so a wrong or hostile -peers URL cannot make the federator allocate
// whatever it sends. A full damaris-run registry document measured 80 KB
// with 2 dedicated cores and 243 KB with 8 (48 ranks, shard loops, encode
// pool, object store, aggregation): ≈30 KB per dedicated core, so 8 MiB
// holds over 250 of them.
const maxScrapeBytes = 8 << 20

// AddURL adds a remote plane scraped over HTTP: base is the peer's root
// (e.g. "http://host:port"); its /metrics.json document is parsed back
// into samples. How damaris-gate federates its replica set. A document
// over maxScrapeBytes fails the scrape, so that source reads as down.
func (f *Federator) AddURL(rank, base string) {
	if f == nil {
		return
	}
	url := strings.TrimSuffix(base, "/") + "/metrics.json"
	f.AddFunc(rank, func() ([]Sample, error) {
		resp, err := f.client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("obs: scrape %s: %s", url, resp.Status)
		}
		var doc MetricsDoc
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxScrapeBytes)).Decode(&doc); err != nil {
			return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
		}
		return SamplesFromJSON(doc.Metrics)
	})
}

// Gather collects every source and returns the federated sample set plus
// the fleet meta series: damaris_fleet_sources (how many sources are
// registered) and damaris_fleet_source_up{rank} (1 if the source's last
// gather succeeded). A failing source contributes up=0 and no samples —
// one dead replica degrades the fleet view instead of blanking it.
func (f *Federator) Gather() []Sample {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	sources := append([]fedSource(nil), f.sources...)
	f.mu.Unlock()

	fed := make([]FedSource, 0, len(sources))
	meta := []Sample{{Name: "damaris_fleet_sources", Kind: KindGauge, Value: float64(len(sources))}}
	for _, src := range sources {
		samples, err := src.gather()
		up := 1.0
		if err != nil {
			up = 0
		} else {
			fed = append(fed, FedSource{Rank: src.rank, Samples: samples})
		}
		meta = append(meta, Sample{
			Name:   "damaris_fleet_source_up",
			Labels: []string{FedRankLabel, src.rank},
			Kind:   KindGauge,
			Value:  up,
		})
	}
	out := append(Federate(fed), meta...)
	sortSamples(out)
	return out
}

// WritePrometheus renders the federated fleet view in the Prometheus text
// format — the /fleet/metrics body.
func (f *Federator) WritePrometheus(w io.Writer) error {
	return WriteSamples(w, f.Gather())
}

// WriteJSON renders the federated fleet view as the JSON exposition
// document — the /fleet/metrics.json body.
func (f *Federator) WriteJSON(w io.Writer) error {
	return WriteSamplesJSON(w, f.Gather())
}
