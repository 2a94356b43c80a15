package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func planeWithSpans(t *testing.T) *Plane {
	t.Helper()
	p := NewPlane(64)
	p.Registry().Collect(func(e *Emitter) { e.Counter("damaris_test_total", 3) })
	tr := p.Tracer()
	tr.Record(StagePersist, 0, 1, time.Unix(0, 1000), 2*time.Millisecond, 128, false)
	tr.Record(StagePersist, 0, 2, time.Unix(0, 2000), 4*time.Millisecond, 128, false)
	tr.Record(StageSpill, 0, 3, time.Unix(0, 3000), time.Millisecond, 64, false)
	return p
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestPlaneRoutes(t *testing.T) {
	p := planeWithSpans(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body, ct := get(t, srv, "/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"damaris_test_total 3",
		"damaris_trace_spans_total 3",
		`damaris_stage_seconds_bucket{stage="persist",le=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, _ = get(t, srv, "/trace")
	spans, err := ReadSpansJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("trace JSONL: %v", err)
	}
	if !reflect.DeepEqual(spans, p.Tracer().Snapshot()) {
		t.Error("/trace does not round-trip the retained spans")
	}

	// The mux no longer registers "GET /jitter", a second summary of
	// damaris_stage_seconds over the ring, and /trace has one format: exact
	// percentiles and the Chrome rendering are dsf-inspect -trace's, offline.
	resp, err := http.Get(srv.URL + "/jitter")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jitter = %s, want 404", resp.Status)
	}
	if chrome, ct := get(t, srv, "/trace?format=chrome"); ct != "application/jsonl" || chrome != body {
		t.Errorf("/trace?format=chrome = %q (%s), want the JSONL of /trace", chrome, ct)
	}

	body, _ = get(t, srv, "/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	// pprof rides the dedicated listener's Handler only.
	if _, ct := get(t, srv, "/debug/pprof/cmdline"); ct == "" {
		t.Error("pprof route not mounted on the dedicated handler")
	}
}

// RegisterRoutes is what damaris-gate folds into its client-facing API mux;
// it must expose the metrics/trace/epochs routes but never pprof (profiles
// leak process internals and /debug/pprof/profile blocks for seconds=N — a
// free DoS on a serving endpoint).
func TestRegisterRoutesExcludesPprof(t *testing.T) {
	p := planeWithSpans(t)
	mux := http.NewServeMux()
	RegisterRoutes(mux, p)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if body, _ := get(t, srv, "/metrics"); !strings.Contains(body, "damaris_test_total") {
		t.Error("/metrics not served through RegisterRoutes")
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s through RegisterRoutes = %s, want 404", path, resp.Status)
		}
	}
}

func TestReadyzRoute(t *testing.T) {
	p := planeWithSpans(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body, ct := get(t, srv, "/readyz")
	if ct != "application/json" {
		t.Errorf("/readyz content type %q", ct)
	}
	var doc struct {
		Ready   bool          `json:"ready"`
		Reasons []ReadyReason `json:"reasons,omitempty"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/readyz: %v", err)
	}
	if !doc.Ready || len(doc.Reasons) != 0 {
		t.Fatalf("fresh plane not ready: %s", body)
	}

	// Two failing probes: 503, reasons sorted by probe name.
	degraded := true
	p.AddReadiness("z-spill", func() error {
		if degraded {
			return errNotReady("spill backlog draining")
		}
		return nil
	})
	p.AddReadiness("a-backend", func() error { return errNotReady("backend unreachable") })
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing probes = %s, want 503", resp.Status)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ready || len(doc.Reasons) != 2 ||
		doc.Reasons[0].Probe != "a-backend" || doc.Reasons[1].Probe != "z-spill" {
		t.Fatalf("not-ready doc = %s", raw)
	}

	// A probe that recovers flips only its own reason off.
	degraded = false
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ready || len(doc.Reasons) != 1 || doc.Reasons[0].Probe != "a-backend" {
		t.Fatalf("partially recovered doc = %s", raw)
	}
}

type errNotReady string

func (e errNotReady) Error() string { return string(e) }

func TestEpochsRoute(t *testing.T) {
	p := planeWithSpans(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body, ct := get(t, srv, "/epochs")
	if ct != "application/json" {
		t.Errorf("/epochs content type %q", ct)
	}
	var reports []EpochReport
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatalf("/epochs: %v", err)
	}
	want := AnalyzeEpochs(p.Tracer().Snapshot())
	if !reflect.DeepEqual(reports, want) {
		t.Errorf("/epochs = %+v, want %+v", reports, want)
	}
	if len(reports) == 0 {
		t.Fatal("planeWithSpans produced no epochs")
	}

	// An empty ring serves the empty JSON array, not null.
	empty := httptest.NewServer(NewPlane(16).Handler())
	defer empty.Close()
	if body, _ := get(t, empty, "/epochs"); strings.TrimSpace(body) != "[]" {
		t.Errorf("/epochs over empty ring = %q, want []", body)
	}
}

func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	if p.Registry() != nil || p.Tracer() != nil {
		t.Fatal("nil plane is not inert")
	}
	// A mux over a nil plane must serve empty documents, not crash.
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	if body, _ := get(t, srv, "/metrics"); body != "" {
		t.Errorf("/metrics over nil plane = %q", body)
	}
	p.AddReadiness("x", func() error { return nil })
	if ready, reasons := p.Ready(); !ready || reasons != nil {
		t.Fatalf("nil plane readiness = %v %v", ready, reasons)
	}
	if body, _ := get(t, srv, "/epochs"); strings.TrimSpace(body) != "[]" {
		t.Errorf("/epochs over nil plane = %q", body)
	}
}
