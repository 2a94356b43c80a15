package gateway

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// statsFamilies maps each gateway.Stats field to the /metrics family that
// carries it. A summary is read through its _count.
var statsFamilies = map[string]string{
	"Requests":          "damaris_gateway_requests_total",
	"TOCHits":           "damaris_gateway_toc_hits_total",
	"TOCMisses":         "damaris_gateway_toc_misses_total",
	"TOCRevalidations":  "damaris_gateway_toc_revalidations_total",
	"TOCInvalidations":  "damaris_gateway_toc_invalidations_total",
	"TOCEvictions":      "damaris_gateway_toc_evictions_total",
	"PartHits":          "damaris_gateway_part_hits_total",
	"PartMisses":        "damaris_gateway_part_misses_total",
	"PartEvictions":     "damaris_gateway_part_evictions_total",
	"PartCacheBytes":    "damaris_gateway_part_cache_bytes",
	"PartCacheParts":    "damaris_gateway_part_cache_parts",
	"BackendGets":       "damaris_gateway_backend_gets_total",
	"FetchBytes":        "damaris_gateway_fetch_bytes_total",
	"BytesServed":       "damaris_gateway_bytes_served_total",
	"FetchLatency":      "damaris_gateway_fetch_seconds_count",
	"RangesInFlight":    "damaris_gateway_ranges_in_flight",
	"MaxRangesInFlight": "damaris_gateway_ranges_in_flight_max",
}

// /metrics is the gateway's one telemetry view: after real reads it carries
// every gateway.Stats field, each at the value the snapshot holds, and both
// hit rates. The JSON views that repeated it, and /jitter, which repeated
// damaris_stage_seconds, are gone and answer 404.
func TestMetricsIsTheOnlyTelemetryView(t *testing.T) {
	b := newBackend(t, 4096)
	writeDSFObject(t, b, "tel.dsf", 2, 3, 1)
	g := newGateway(t, b, Config{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/chunk/tel.dsf?index=1", "/v1/chunk/tel.dsf?index=1", "/v1/raw/tel.dsf?off=0&len=9000"} {
		if code, body := httpGet(t, srv.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, body)
		}
	}

	code, body := httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			samples[f[0]] = v
		}
	}
	st := g.Stats()
	sv := reflect.ValueOf(st)
	for i := range sv.NumField() {
		name := sv.Type().Field(i).Name
		family, ok := statsFamilies[name]
		if !ok {
			t.Errorf("Stats.%s has no /metrics family in this test's table", name)
			continue
		}
		got, ok := samples[family]
		if !ok {
			t.Errorf("/metrics has no %s for Stats.%s", family, name)
			continue
		}
		want := float64(st.FetchLatency.N)
		if f := sv.Field(i); f.Kind() == reflect.Int64 {
			want = float64(f.Int())
		}
		if got != want {
			t.Errorf("/metrics %s = %v, Stats.%s = %v", family, got, name, want)
		}
	}
	if st.PartHits == 0 || st.BackendGets == 0 || st.FetchLatency.N == 0 {
		t.Errorf("the reads exercised too little: %+v", st)
	}
	for family, want := range map[string]float64{
		"damaris_gateway_part_hit_rate": st.PartHitRate(),
		"damaris_gateway_toc_hit_rate":  st.TOCHitRate(),
	} {
		if got, ok := samples[family]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", family, got, ok, want)
		}
	}

	for _, path := range []string{"/v1/stats", "/metrics.json", "/v1/metrics", "/jitter"} {
		if code, _ := httpGet(t, srv.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}
