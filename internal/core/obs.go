package core

import (
	"fmt"

	"damaris/internal/obs"
)

// Registry emission for the core layer's snapshot structs. damaris-run's
// end-of-run report is a gather of the registry these feed, so a live scrape
// mid-run and the final report can never disagree on a value.

// Emit writes the pipeline snapshot into a registry gather under the
// damaris_pipeline_* families, fanning out to the encode, store, spill and
// aggregation sub-snapshots it embeds.
func (ps PipelineStats) Emit(e *obs.Emitter, labels ...string) {
	e.Gauge("damaris_pipeline_workers", float64(ps.Workers), labels...)
	e.Gauge("damaris_pipeline_queue_depth_limit", float64(ps.QueueDepth), labels...)
	e.Gauge("damaris_pipeline_window", float64(ps.Window), labels...)
	e.Counter("damaris_pipeline_enqueued_total", float64(ps.Enqueued), labels...)
	e.Counter("damaris_pipeline_completed_total", float64(ps.Completed), labels...)
	e.Counter("damaris_pipeline_failures_total", float64(ps.Failures), labels...)
	e.Gauge("damaris_pipeline_in_flight_max", float64(ps.MaxInFlight), labels...)
	e.Gauge("damaris_pipeline_utilization", ps.Utilization, labels...)
	e.Summary("damaris_pipeline_depth", ps.Depth, labels...)
	e.Summary("damaris_pipeline_flush_seconds", ps.FlushLatency, labels...)
	e.Summary("damaris_pipeline_batch_size", ps.BatchSize, labels...)
	ps.Encode.Emit(e, labels...)
	ps.Store.Emit(e, labels...)
	ps.Spill.Emit(e, labels...)
	if ps.Aggregate.Members > 0 {
		ps.Aggregate.Emit(e, append([]string{"tier", "node"}, labels...)...)
	}
	if ps.AggregateGlobal.Members > 0 {
		ps.AggregateGlobal.Emit(e, append([]string{"tier", "global"}, labels...)...)
	}
	e.Counter("damaris_aggregate_forwarded_total", float64(ps.AggregateForwarded), labels...)
	e.Gauge("damaris_shard_count", float64(len(ps.Shards)), labels...)
	for i, sh := range ps.Shards {
		sl := append([]string{"shard", fmt.Sprint(i)}, labels...)
		e.Gauge("damaris_shard_queue_depth", float64(sh.QueueLen), sl...)
		e.Counter("damaris_shard_events_total", float64(sh.Events), sl...)
		e.Counter("damaris_shard_wakeups_total", float64(sh.Wakeups), sl...)
		e.Gauge("damaris_shard_busy_fraction", sh.BusyFraction, sl...)
	}
}

// Emit writes the scratch-spill snapshot under the damaris_spill_* families.
func (ss SpillStats) Emit(e *obs.Emitter, labels ...string) {
	var enabled float64
	if ss.Enabled {
		enabled = 1
	}
	e.Gauge("damaris_spill_enabled", enabled, labels...)
	e.Gauge("damaris_spill_threshold", float64(ss.Threshold), labels...)
	e.Counter("damaris_spill_spilled_total", float64(ss.Spilled), labels...)
	e.Counter("damaris_spill_recovered_total", float64(ss.Recovered), labels...)
	e.Counter("damaris_spill_replayed_total", float64(ss.Replayed), labels...)
	e.Gauge("damaris_spill_pending", float64(ss.Pending), labels...)
	e.Gauge("damaris_spill_stranded", float64(ss.Stranded), labels...)
	e.Counter("damaris_spill_failures_total", float64(ss.Failures), labels...)
	e.Counter("damaris_spill_bytes_total", float64(ss.Bytes), labels...)
}

// emitServer adds the server-level figures that live outside PipelineStats:
// payload volume, the dedicated core's busy/spare split (the paper's "spare
// time" measure) and the per-iteration write-time summary.
func (s *Server) emitServer(e *obs.Emitter, labels ...string) {
	e.Counter("damaris_server_bytes_written_total", float64(s.BytesWritten()), labels...)
	s.mu.Lock()
	acked := s.acked
	s.mu.Unlock()
	e.Counter("damaris_server_iterations_total", float64(acked), labels...)
	e.Counter("damaris_server_spare_seconds_total", s.SpareSeconds(), labels...)
	e.Counter("damaris_server_busy_seconds_total", s.BusySeconds(), labels...)
	e.Summary("damaris_server_write_seconds", s.WriteStats(), labels...)
}
