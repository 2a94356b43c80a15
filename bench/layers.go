package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// layerMetric declares one per-layer metric: its unit and direction. Values
// come from three sources — spans of the traced segment, the public stats
// snapshots taken in that segment, and the isolated probes.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// perLayer is the fixed list, in the order of the README table. The name's
// prefix is the package the metric belongs to.
var perLayer = []layerMetric{
	// The client's view: the seven wall-clock end-to-end metrics no bound
	// gates, from the untraced segments, on the workloads of their matrix.
	{"client.write_phase_p50_ms", "ms", "lower"},
	{"client.write_phase_p95_ms", "ms", "lower"},
	{"client.ack_p50_ms", "ms", "lower"},
	{"client.ack_p90_ms", "ms", "lower"},
	{"client.durable_mb_s", "MB/s", "higher"},
	{"client.read_p50_ms", "ms", "lower"},
	{"client.read_p95_ms", "ms", "lower"},
	{"core.client_write_p50_us", "us", "lower"},
	{"core.client_write_ns_per_byte", "ns/B", "lower"},
	{"core.end_iteration_p50_us", "us", "lower"},
	{"core.flow_wait_share", "ratio", "lower"},
	{"core.queue_wait_p50_ms", "ms", "lower"},
	{"core.persist_call_p50_ms", "ms", "lower"},
	{"core.persist_self_ns_per_byte", "ns/B", "lower"},
	{"core.batch_size_mean", "count", "lower"},
	{"core.queue_depth_mean", "count", "lower"},
	{"core.writer_utilization", "ratio", "lower"},
	{"core.shard_busy_fraction_max", "ratio", "lower"},
	{"core.shard_steals", "count", "lower"},
	{"core.pipeline_failures", "count", "lower"},
	{"core.allocs_per_iteration", "count", "lower"},
	{"core.deploy_ms", "ms", "lower"},
	{"config.parse_us", "us", "lower"},
	{"store.write_ns_per_byte", "ns/B", "lower"},
	{"store.commit_p50_ms", "ms", "lower"},
	{"store.create_p50_us", "us", "lower"},
	{"store.puts_per_object", "count", "lower"},
	{"store.put_bytes_per_user_byte", "ratio", "lower"},
	{"store.put_latency_mean_ms", "ms", "lower"},
	{"store.dedupe_hit_rate", "ratio", "higher"},
	{"store.retries", "count", "lower"},
	{"store.failures", "count", "lower"},
	{"store.get_p50_us", "us", "lower"},
	{"store.gets_per_read", "count", "lower"},
	{"store.read_at_p50_us", "us", "lower"},
	{"store.file_object_ns_per_byte", "ns/B", "lower"},
	{"store.obj_object_ns_per_byte", "ns/B", "lower"},
	{"store.obj_allocs_per_part", "count", "lower"},
	{"gateway.read_self_p50_us", "us", "lower"},
	{"gateway.part_hit_rate", "ratio", "higher"},
	{"gateway.toc_hit_rate", "ratio", "higher"},
	{"gateway.backend_gets_per_read", "count", "lower"},
	{"gateway.toc_invalidations", "count", "lower"},
	{"gateway.alloc_bytes_per_read_byte", "ratio", "lower"},
	{"shm.reserve_release_ns_per_op", "ns", "lower"},
	{"shm.reserve_copy_ns_per_byte_1m", "ns/B", "lower"},
	{"shm.reserve_copy_ns_per_byte_32k", "ns/B", "lower"},
	{"event.push_pop_ns_per_op", "ns", "lower"},
	{"event.push_allocs_per_op", "count", "lower"},
	{"metadata.put_ns_per_op", "ns", "lower"},
	{"metadata.put_ns_per_op_2shards", "ns", "lower"},
	{"metadata.take_iteration_ns_per_entry", "ns", "lower"},
	{"metadata.take_iteration_ns_per_entry_2shards", "ns", "lower"},
	{"transform.shuffle_ns_per_byte", "ns/B", "lower"},
	{"transform.gzip_ns_per_byte", "ns/B", "lower"},
	{"transform.ratio", "ratio", "lower"},
	{"dsf.write_raw_ns_per_byte", "ns/B", "lower"},
	{"dsf.write_shufflegzip_ns_per_byte_pool0", "ns/B", "lower"},
	{"dsf.write_shufflegzip_ns_per_byte_pool2", "ns/B", "lower"},
	{"dsf.write_allocs_per_chunk", "count", "lower"},
	{"dsf.open_toc_us", "us", "lower"},
	{"dsf.read_chunk_ns_per_byte", "ns/B", "lower"},
	{"aggregate.submit_merge_ns_per_byte", "ns/B", "lower"},
	{"aggregate.ring_depth_mean", "count", "lower"},
	{"aggregate.durability_window_max", "count", "lower"},
	{"aggregate.commit_failures", "count", "lower"},
	{"obs.tracing_overhead_write_phase_pct", "%", "lower"},
	{"obs.tracing_overhead_durable_pct", "%", "lower"},
	{"obs.spans_recorded", "count", "lower"},
	{"host.steal_share", "ratio", "lower"},
	{"host.gomaxprocs", "count", "higher"},
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type spanKey struct {
	rank int
	iter int64
}

// layerValues derives the span- and snapshot-based per-layer metrics of one
// traced segment. base is the untraced run of the same workload, for the
// tracing overhead. Only timed iterations (past the warm-up) count.
func layerValues(w workload, tr *segResult, base []*segResult) map[string]float64 {
	v := make(map[string]float64)

	var (
		writeDur, endDur, commitDur, createDur, persistDur []float64
		getDur, readAtDur                                  []float64
		writeNS, writeBytes                                float64
		endNS, phaseNS                                     float64
		storeWriteNS, storeWriteBytes                      float64
		gets                                               int
	)
	children := make(map[spanKey]time.Duration) // time covered by a span's children
	for _, s := range tr.spans {
		d := s.End - s.Start
		switch s.Name {
		case spanCreate, spanWrite, spanCommit, spanGet, spanManifest, spanStatObject:
			children[spanKey{s.Rank, s.Iter}] += d
		}
		if s.Rank >= 0 && s.Iter < warmup || s.Rank == readerRank && s.Iter >= int64(len(tr.reads)) {
			continue // warm-up iteration, or a read beyond the measured ones
		}
		switch s.Name {
		case spanClientWrite:
			writeDur = append(writeDur, us(d))
			writeNS += float64(d)
			writeBytes += float64(s.Bytes)
		case spanEndIteration:
			endDur = append(endDur, us(d))
			endNS += float64(d)
		case spanWritePhase:
			phaseNS += float64(d)
		case spanCreate:
			createDur = append(createDur, us(d))
		case spanWrite:
			storeWriteNS += float64(d)
			storeWriteBytes += float64(s.Bytes)
		case spanCommit:
			commitDur = append(commitDur, ms(d))
		case spanGet:
			getDur = append(getDur, us(d))
			gets++
		case spanReadAt:
			readAtDur = append(readAtDur, us(d))
		}
	}
	var queueWait, readSelf []float64
	var persistSelfNS, persistBytes float64
	reads := 0
	for _, s := range tr.spans {
		d := s.End - s.Start
		switch {
		case s.Name == spanPersist && s.Iter >= warmup:
			persistDur = append(persistDur, ms(d))
			persistSelfNS += float64(d - children[spanKey{s.Rank, s.Iter}])
			persistBytes += float64(s.Bytes)
			if int(s.Iter) < len(tr.endEntry) {
				queueWait = append(queueWait, ms(s.Start-tr.endEntry[s.Iter].Sub(tr.epoch)))
			}
		case s.Name == spanReadChunk && s.Iter < int64(len(tr.reads)):
			reads++
			readSelf = append(readSelf, us(d-children[spanKey{s.Rank, s.Iter}]))
		}
	}

	v["core.client_write_p50_us"] = pct(writeDur, 50)
	v["core.client_write_ns_per_byte"] = ratio(writeNS, writeBytes)
	v["core.end_iteration_p50_us"] = pct(endDur, 50)
	v["core.flow_wait_share"] = ratio(endNS, phaseNS)
	v["core.queue_wait_p50_ms"] = pct(queueWait, 50)
	v["core.persist_call_p50_ms"] = pct(persistDur, 50)
	v["core.persist_self_ns_per_byte"] = ratio(persistSelfNS, persistBytes)

	var batch, depth, util, busyMax, steals, failures float64
	for _, ps := range tr.pipeline {
		batch += ps.BatchSize.Mean / float64(len(tr.pipeline))
		depth += ps.Depth.Mean / float64(len(tr.pipeline))
		util += ps.Utilization / float64(len(tr.pipeline))
		failures += float64(ps.Failures)
		for _, sh := range ps.Shards {
			steals += float64(sh.Steals)
			if sh.BusyFraction > busyMax {
				busyMax = sh.BusyFraction
			}
		}
		if ps.Aggregate.Members > 0 {
			v["aggregate.ring_depth_mean"] = ps.Aggregate.RingDepth.Mean
			v["aggregate.durability_window_max"] = float64(ps.Aggregate.DurabilityWindowMax)
			v["aggregate.commit_failures"] = float64(ps.Aggregate.CommitFailures)
		}
	}
	v["core.batch_size_mean"] = batch
	v["core.queue_depth_mean"] = depth
	v["core.writer_utilization"] = util
	v["core.shard_busy_fraction_max"] = busyMax
	v["core.shard_steals"] = steals
	v["core.pipeline_failures"] = failures
	v["core.allocs_per_iteration"] = ratio(float64(tr.mallocs), float64(tr.iterations-warmup))
	v["core.deploy_ms"] = tr.deployMS
	v["config.parse_us"] = tr.parseUS

	v["store.write_ns_per_byte"] = ratio(storeWriteNS, storeWriteBytes)
	v["store.commit_p50_ms"] = pct(commitDur, 50)
	v["store.create_p50_us"] = pct(createDur, 50)
	v["store.puts_per_object"] = ratio(float64(tr.store.Puts), float64(tr.objects))
	v["store.put_bytes_per_user_byte"] = ratio(float64(tr.store.PutBytes), float64(tr.userBytes))
	v["store.put_latency_mean_ms"] = tr.store.PutLatency.Mean * 1e3
	v["store.dedupe_hit_rate"] = tr.store.DedupeHitRate()
	v["store.retries"] = float64(tr.store.Retries)
	v["store.failures"] = float64(tr.store.Failures)
	v["store.read_at_p50_us"] = pct(readAtDur, 50)

	if w.Reader {
		measured := float64(len(tr.reads))
		v["store.get_p50_us"] = pct(getDur, 50)
		v["store.gets_per_read"] = ratio(float64(gets), float64(reads))
		v["gateway.read_self_p50_us"] = pct(readSelf, 50)
		v["gateway.part_hit_rate"] = tr.gateway.PartHitRate()
		v["gateway.toc_hit_rate"] = tr.gateway.TOCHitRate()
		v["gateway.backend_gets_per_read"] = ratio(float64(tr.gateway.BackendGets), measured)
		v["gateway.toc_invalidations"] = float64(tr.gateway.TOCInvalidations)
		v["gateway.alloc_bytes_per_read_byte"] = ratio(float64(tr.quietReadAlloc), float64(tr.quietReadBytes))
	}

	for _, m := range endToEndMetrics(w, base, false) {
		if d, _ := findMetric(m.Name); !d.Declared {
			v["client."+m.Name] = m.Value
		}
	}
	var basePhase, baseDurable []float64
	for _, b := range base {
		basePhase = append(basePhase, pct(b.phases, 50))
		baseDurable = append(baseDurable, float64(b.timedBytes)/b.windowS)
	}
	v["obs.tracing_overhead_write_phase_pct"] = 100 * (ratio(pct(tr.phases, 50), median(basePhase)) - 1)
	// Throughput falls when tracing costs something, so the overhead is the
	// untraced rate over the traced one.
	v["obs.tracing_overhead_durable_pct"] = 100 * (ratio(median(baseDurable), float64(tr.timedBytes)/tr.windowS) - 1)
	v["obs.spans_recorded"] = float64(len(tr.spans))
	v["host.steal_share"] = tr.steal
	v["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return v
}

// layerMetrics orders values by the fixed list. A metric no source produced
// on this workload (gateway.* without a reader, aggregate.* without
// aggregation) is left out.
func layerMetrics(values map[string]float64) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		if x, ok := values[d.Name]; ok {
			out = append(out, metric{Name: d.Name, Value: x, Unit: d.Unit, N: 1, Spread: [2]float64{x, x}})
		}
	}
	return out
}

// spanRecord is the JSONL form of a span.
type spanRecord struct {
	Name    string `json:"name"`
	ID      string `json:"id"` // workload/segment/rank/iteration
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the segment's set-up began
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Object  string `json:"object,omitempty"`
}

// writeSpans appends a traced segment's spans to w, one JSON object a line.
func writeSpans(w io.Writer, workload string, seg int, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rank := fmt.Sprint(s.Rank)
		if s.Rank == readerRank {
			rank = "reader"
		}
		if err := enc.Encode(spanRecord{
			Name: s.Name, ID: fmt.Sprintf("%s/%d/%s/%d", workload, seg, rank, s.Iter),
			Parent: s.Parent, StartNS: int64(s.Start), EndNS: int64(s.End), Bytes: s.Bytes, Object: s.Object,
		}); err != nil {
			return err
		}
	}
	return nil
}
