package obs

import (
	"sort"
	"time"

	"damaris/internal/stats"
)

// Epoch critical-path analysis: reconstructing per-epoch timelines from a
// (possibly multi-rank) span set. Spans group by their Iteration — the
// aggregation leader records its merge spans under the epoch number, which
// equals the client iteration number, so one group holds an epoch's full
// cross-rank story. Lifecycle stages overlap and nest (a member's
// `persist` wait brackets the leader's `merge`, which brackets the
// object's `commit`), so the analyzer compares *total recorded stage
// time*, not a partition of wall time: the dominant stage is where the
// epoch's recorded time concentrated, excluding the `ack` envelope
// (submit→durable, which by construction spans almost everything and
// would always win).

// EpochStage is one stage's share of an epoch: span count, summed and
// maximum duration, and the origin rank of the longest span.
type EpochStage struct {
	Stage         string  `json:"stage"`
	Count         int     `json:"count"`
	TotalSeconds  float64 `json:"total_s"`
	MaxSeconds    float64 `json:"max_s"`
	SlowestOrigin int     `json:"slowest_origin"`
}

// EpochReport is one epoch's reconstructed timeline — the /epochs document
// is a JSON array of these, ascending by epoch.
type EpochReport struct {
	Epoch int64 `json:"epoch"`
	Spans int   `json:"spans"`
	// Origins lists every rank that contributed a span, ascending.
	Origins []int `json:"origins"`
	// WallSeconds is first span start → last span end.
	WallSeconds float64 `json:"wall_s"`
	// DominantStage is the stage with the largest summed duration
	// (excluding the ack envelope unless the epoch recorded nothing else).
	DominantStage   string  `json:"dominant_stage"`
	DominantSeconds float64 `json:"dominant_total_s"`
	// SlowestOrigin is the rank with the largest summed non-ack span time
	// — the epoch's critical rank; ties resolve to the lowest rank.
	SlowestOrigin  int     `json:"slowest_origin"`
	SlowestSeconds float64 `json:"slowest_origin_s"`
	Err            bool    `json:"err,omitempty"`
	// Stages is the queue-vs-persist-vs-merge breakdown, pipeline order,
	// recorded stages only.
	Stages []EpochStage `json:"stages"`
	// Stragglers lists origins whose ack latency for this epoch exceeded
	// the p99 ack latency of the whole span set.
	Stragglers []int `json:"stragglers,omitempty"`
}

// AnalyzeEpochs reconstructs per-epoch reports from a span set — the
// tracer's live ring for /epochs, or spans merged from multiple per-rank
// trace files for dsf-inspect's offline view. Spans with a negative
// iteration are skipped. The output depends only on the span multiset.
func AnalyzeEpochs(spans []Span) []EpochReport {
	type epochAcc struct {
		stageTotal [NumStages]int64
		stageMax   [NumStages]int64
		stageMaxO  [NumStages]int
		stageCount [NumStages]int
		originNS   map[int]int64 // non-ack time per origin
		ackByO     map[int]int64 // ack latency per origin (max if several)
		origins    map[int]bool
		startNS    int64
		endNS      int64
		spans      int
		err        bool
	}
	epochs := make(map[int64]*epochAcc)
	var ackDurs []float64
	for i := range spans {
		sp := &spans[i]
		if sp.Iteration < 0 || sp.Stage >= NumStages {
			continue
		}
		a := epochs[sp.Iteration]
		if a == nil {
			a = &epochAcc{
				originNS: make(map[int]int64),
				ackByO:   make(map[int]int64),
				origins:  make(map[int]bool),
				startNS:  sp.Start,
			}
			epochs[sp.Iteration] = a
		}
		a.spans++
		a.origins[sp.Origin] = true
		a.err = a.err || sp.Err
		if sp.Start < a.startNS {
			a.startNS = sp.Start
		}
		if end := sp.Start + sp.Dur; end > a.endNS {
			a.endNS = end
		}
		st := sp.Stage
		a.stageCount[st]++
		a.stageTotal[st] += sp.Dur
		if sp.Dur > a.stageMax[st] || a.stageCount[st] == 1 {
			a.stageMax[st] = sp.Dur
			a.stageMaxO[st] = sp.Origin
		}
		if st == StageAck {
			ackDurs = append(ackDurs, time.Duration(sp.Dur).Seconds())
			if sp.Dur > a.ackByO[sp.Origin] {
				a.ackByO[sp.Origin] = sp.Dur
			}
		} else {
			a.originNS[sp.Origin] += sp.Dur
		}
	}

	// Straggler threshold: the p99 ack latency across the whole span set.
	var ackP99 float64
	if len(ackDurs) > 0 {
		ackP99 = stats.Summarize(ackDurs).P99
	}

	keys := make([]int64, 0, len(epochs))
	for e := range epochs {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	out := make([]EpochReport, 0, len(keys))
	for _, e := range keys {
		a := epochs[e]
		r := EpochReport{
			Epoch:         e,
			Spans:         a.spans,
			WallSeconds:   time.Duration(a.endNS - a.startNS).Seconds(),
			Err:           a.err,
			SlowestOrigin: -1,
		}
		for o := range a.origins {
			r.Origins = append(r.Origins, o)
		}
		sort.Ints(r.Origins)

		dominant := Stage(NumStages)
		for st := Stage(0); st < NumStages; st++ {
			if a.stageCount[st] == 0 {
				continue
			}
			r.Stages = append(r.Stages, EpochStage{
				Stage:         st.String(),
				Count:         a.stageCount[st],
				TotalSeconds:  time.Duration(a.stageTotal[st]).Seconds(),
				MaxSeconds:    time.Duration(a.stageMax[st]).Seconds(),
				SlowestOrigin: a.stageMaxO[st],
			})
			if st == StageAck {
				continue
			}
			if dominant == NumStages || a.stageTotal[st] > a.stageTotal[dominant] {
				dominant = st
			}
		}
		if dominant == NumStages && a.stageCount[StageAck] > 0 {
			dominant = StageAck // an epoch that recorded nothing but acks
		}
		if dominant < NumStages {
			r.DominantStage = dominant.String()
			r.DominantSeconds = time.Duration(a.stageTotal[dominant]).Seconds()
		}

		slowest := a.originNS
		if len(slowest) == 0 {
			slowest = a.ackByO
		}
		var slowNS int64 = -1
		for o, ns := range slowest {
			if ns > slowNS || (ns == slowNS && o < r.SlowestOrigin) {
				slowNS = ns
				r.SlowestOrigin = o
			}
		}
		if slowNS >= 0 {
			r.SlowestSeconds = time.Duration(slowNS).Seconds()
		}

		for o, ns := range a.ackByO {
			if time.Duration(ns).Seconds() > ackP99 {
				r.Stragglers = append(r.Stragglers, o)
			}
		}
		sort.Ints(r.Stragglers)
		out = append(out, r)
	}
	return out
}
