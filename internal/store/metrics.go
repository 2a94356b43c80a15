package store

import (
	"errors"
	"sync"

	"damaris/internal/obs"
	"damaris/internal/stats"
)

// Stats is a snapshot of one backend's operation metrics, exported through
// core's PipelineStats so a run reports its storage profile next to its
// pipeline profile.
type Stats struct {
	// Scheme identifies the backend kind ("file", "obj", ...).
	Scheme string
	// Puts/Gets/Deletes count blob-plane operations that reached storage
	// (dedupe-skipped part uploads are counted in DedupeHits instead).
	Puts, Gets, Deletes int64
	// PutBytes and GetBytes measure the volume moved.
	PutBytes, GetBytes int64
	// PutLatency and GetLatency summarize per-op seconds, injected fault
	// latency included (that is the point: it models the storage target).
	PutLatency, GetLatency stats.Summary
	// Failures counts operations that returned an error, retried or not.
	Failures int64
	// Retries counts part-upload attempts beyond each part's first.
	Retries int64
	// Backoffs counts the capped-exponential backoff waits taken between
	// part-upload retry attempts; BackoffSeconds is the total time slept.
	Backoffs       int64
	BackoffSeconds float64
	// PutTimeouts counts put attempts abandoned at the per-put deadline —
	// each is a hung-target stall converted into a retryable error.
	PutTimeouts int64
	// Hedges counts secondary puts launched after the hedge trigger;
	// HedgeWins those where the hedged attempt supplied the first success
	// (the primary was slow or lost).
	Hedges, HedgeWins int64
	// DedupeHits counts part uploads skipped because the content-addressed
	// blob was already present; DedupeBytes the upload bytes saved.
	DedupeHits  int64
	DedupeBytes int64
	// PartsInFlight / MaxPartsInFlight gauge the multipart upload pool.
	PartsInFlight    int64
	MaxPartsInFlight int64
	// Commits counts manifests published (== objects made visible).
	Commits int64
}

// DedupeHitRate is the fraction of part uploads avoided by content
// addressing: hits / (hits + actual puts). Zero when nothing was uploaded.
func (s Stats) DedupeHitRate() float64 {
	total := s.DedupeHits + s.Puts
	if total == 0 {
		return 0
	}
	return float64(s.DedupeHits) / float64(total)
}

// Emit writes the snapshot into a registry gather under the damaris_store_*
// families — the live-scrape view of the exact figures the end-of-run store
// report prints. Extra labels (e.g. server rank) are appended to the
// backend's scheme label on every sample.
func (s Stats) Emit(e *obs.Emitter, labels ...string) {
	ls := labels
	if s.Scheme != "" {
		ls = append([]string{"scheme", s.Scheme}, labels...)
	}
	e.Counter("damaris_store_puts_total", float64(s.Puts), ls...)
	e.Counter("damaris_store_gets_total", float64(s.Gets), ls...)
	e.Counter("damaris_store_deletes_total", float64(s.Deletes), ls...)
	e.Counter("damaris_store_put_bytes_total", float64(s.PutBytes), ls...)
	e.Counter("damaris_store_get_bytes_total", float64(s.GetBytes), ls...)
	e.Counter("damaris_store_failures_total", float64(s.Failures), ls...)
	e.Counter("damaris_store_retries_total", float64(s.Retries), ls...)
	e.Counter("damaris_store_backoffs_total", float64(s.Backoffs), ls...)
	e.Counter("damaris_store_backoff_seconds_total", s.BackoffSeconds, ls...)
	e.Counter("damaris_store_put_timeouts_total", float64(s.PutTimeouts), ls...)
	e.Counter("damaris_store_hedges_total", float64(s.Hedges), ls...)
	e.Counter("damaris_store_hedge_wins_total", float64(s.HedgeWins), ls...)
	e.Counter("damaris_store_dedupe_hits_total", float64(s.DedupeHits), ls...)
	e.Counter("damaris_store_dedupe_bytes_total", float64(s.DedupeBytes), ls...)
	e.Counter("damaris_store_commits_total", float64(s.Commits), ls...)
	e.Gauge("damaris_store_parts_in_flight", float64(s.PartsInFlight), ls...)
	e.Gauge("damaris_store_parts_in_flight_max", float64(s.MaxPartsInFlight), ls...)
	e.Summary("damaris_store_put_seconds", s.PutLatency, ls...)
	e.Summary("damaris_store_get_seconds", s.GetLatency, ls...)
}

// metrics is a backend's Stats behind a lock. The counters are the exported
// fields themselves; the two latency summaries are computed from their
// accumulators when a snapshot is taken.
type metrics struct {
	mu sync.Mutex
	Stats
	putLat, getLat stats.Accumulator
}

// inc bumps one counter of the embedded Stats: m.inc(&m.Retries).
func (m *metrics) inc(n *int64) {
	m.mu.Lock()
	*n++
	m.mu.Unlock()
}

// failed counts err as a failed operation unless it is nil or says the
// thing asked for is not there — a miss is an answer, not a failure — and
// returns it, so call sites read "return s.metrics.failed(err)".
func (m *metrics) failed(err error) error {
	if err != nil && !errors.Is(err, ErrNotExist) {
		m.inc(&m.Failures)
	}
	return err
}

func (m *metrics) put(seconds float64, bytes int64) {
	m.mu.Lock()
	m.Puts++
	m.PutBytes += bytes
	m.putLat.Add(seconds)
	m.mu.Unlock()
}

func (m *metrics) get(seconds float64, bytes int64) {
	m.mu.Lock()
	m.Gets++
	m.GetBytes += bytes
	m.getLat.Add(seconds)
	m.mu.Unlock()
}

func (m *metrics) backoff(seconds float64) {
	m.mu.Lock()
	m.Backoffs++
	m.BackoffSeconds += seconds
	m.mu.Unlock()
}

func (m *metrics) dedupe(bytes int64) {
	m.mu.Lock()
	m.DedupeHits++
	m.DedupeBytes += bytes
	m.mu.Unlock()
}

func (m *metrics) partStart() {
	m.mu.Lock()
	m.PartsInFlight++
	if m.PartsInFlight > m.MaxPartsInFlight {
		m.MaxPartsInFlight = m.PartsInFlight
	}
	m.mu.Unlock()
}

func (m *metrics) partEnd() {
	m.mu.Lock()
	m.PartsInFlight--
	m.mu.Unlock()
}

func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.Stats
	s.PutLatency, s.GetLatency = m.putLat.Summary(), m.getLat.Summary()
	return s
}
