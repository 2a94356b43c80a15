package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Plane bundles the telemetry a process exposes: one metrics registry and
// one lifecycle tracer — plus readiness probes behind /readyz — and the
// HTTP exposition handler both damaris-run (-metrics-addr) and damaris-gate
// (folded into its mux) serve. All methods tolerate a nil receiver —
// subsystems wire telemetry unconditionally and a nil plane means
// "observability off".
type Plane struct {
	reg   *Registry
	trace *Tracer

	readyMu sync.Mutex
	probes  []readyProbe
}

type readyProbe struct {
	name  string
	check func() error
}

// NewPlane builds a plane whose trace ring retains ringSlots spans
// (<=0 selects DefaultTraceSlots). The tracer's registry view and the
// runtime collector (runtime.go) are pre-registered.
func NewPlane(ringSlots int) *Plane {
	if ringSlots <= 0 {
		ringSlots = DefaultTraceSlots
	}
	p := &Plane{reg: NewRegistry(), trace: NewTracer(ringSlots)}
	p.reg.Collect(p.trace.Collect)
	p.reg.Collect(newRuntimeCollector().Collect)
	return p
}

// Registry returns the plane's metrics registry (nil for a nil plane).
func (p *Plane) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Tracer returns the plane's lifecycle tracer (nil for a nil plane).
func (p *Plane) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.trace
}

// AddReadiness registers a named readiness probe: /readyz reports
// not-ready (503) with the probe's error while check returns one. Probes
// run on every /readyz request, so they must be cheap snapshots —
// "spill backlog draining", "backend probe object unreachable". Nil-safe.
func (p *Plane) AddReadiness(name string, check func() error) {
	if p == nil || check == nil {
		return
	}
	p.readyMu.Lock()
	p.probes = append(p.probes, readyProbe{name: name, check: check})
	p.readyMu.Unlock()
}

// ReadyReason is one failing readiness probe in the /readyz document.
type ReadyReason struct {
	Probe string `json:"probe"`
	Err   string `json:"error"`
}

// Ready runs every registered probe and returns whether the process is
// ready plus the failing probes' reasons, sorted by probe name (then
// registration order) so the document is deterministic. A nil plane is
// vacuously ready.
func (p *Plane) Ready() (bool, []ReadyReason) {
	if p == nil {
		return true, nil
	}
	p.readyMu.Lock()
	probes := append([]readyProbe(nil), p.probes...)
	p.readyMu.Unlock()
	var reasons []ReadyReason
	for _, pr := range probes {
		if err := pr.check(); err != nil {
			reasons = append(reasons, ReadyReason{Probe: pr.name, Err: err.Error()})
		}
	}
	sort.SliceStable(reasons, func(i, j int) bool { return reasons[i].Probe < reasons[j].Probe })
	return len(reasons) == 0, reasons
}

// Handler returns the exposition endpoint:
//
//	GET /metrics            Prometheus text format (the gateway serves the
//	                        same route over its registry — one exposition
//	                        for the read and write planes)
//	GET /epochs             per-epoch critical-path reports (EpochReport)
//	GET /trace              retained lifecycle spans, JSONL (dsf-inspect
//	                        -trace renders them as exact percentiles,
//	                        Chrome trace events or epochs offline)
//	GET /healthz            liveness
//	GET /readyz             readiness (503 + failing probes while not ready)
//	GET /debug/pprof/...    net/http/pprof behind the same listener
//
// Handler is for a dedicated, operator-facing telemetry listener
// (damaris-run's -metrics-addr); it is the only place pprof is mounted.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	RegisterRoutes(mux, p)
	RegisterDebugRoutes(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// RegisterRoutes mounts the plane's exposition routes onto an existing mux
// — how damaris-gate folds telemetry into its API mux instead of opening a
// second listener. It deliberately does NOT mount pprof: profiles and the
// process cmdline are information exposure, and /debug/pprof/profile is a
// free DoS on a serving endpoint, so a public API mux must not carry them
// (use RegisterDebugRoutes on a dedicated listener instead).
func RegisterRoutes(mux *http.ServeMux, p *Plane) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		p.Tracer().WriteJSONL(w)
	})
	mux.HandleFunc("GET /epochs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reports := AnalyzeEpochs(p.Tracer().Snapshot())
		if reports == nil {
			reports = []EpochReport{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reports)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reasons := p.Ready()
		if reasons == nil {
			reasons = []ReadyReason{}
		}
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Ready   bool          `json:"ready"`
			Reasons []ReadyReason `json:"reasons"`
		}{Ready: ready, Reasons: reasons})
	})
}

// RegisterDebugRoutes mounts net/http/pprof. Keep it off anything a data
// client can reach; Plane.Handler wires it onto the dedicated telemetry
// listener only.
func RegisterDebugRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// RecordSince is the convenience most instrumentation points use: record a
// span that started at `start` and ends now.
func (t *Tracer) RecordSince(stage Stage, server int, iteration int64, start time.Time, bytes int64, isErr bool) {
	if t == nil {
		return
	}
	t.Record(stage, server, iteration, start, time.Since(start), bytes, isErr)
}
