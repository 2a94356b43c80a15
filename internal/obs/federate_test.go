package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"damaris/internal/stats"
)

// fedTestRegistry builds one rank's registry: a shared unlabeled counter
// (summed across ranks), a per-rank-labeled counter (disjoint series), a
// gauge (per-rank series + rollups), a histogram on shared bounds
// (bucket-wise sum) and a summary collector (per-rank quantiles, merged
// extremes).
func fedTestRegistry(rank int, obsCount int) *Registry {
	h := NewHistogram(DefaultDurationBuckets())
	rng := rand.New(rand.NewSource(int64(rank + 1)))
	for i := 0; i < obsCount; i++ {
		h.Observe(rng.Float64() / 100)
	}
	reg := NewRegistry()
	reg.Collect(func(e *Emitter) {
		e.Counter("test_shared_total", float64(100*(rank+1)))
		e.Counter("test_ops_total", float64(10+rank), "server", fmt.Sprint(rank))
		e.Gauge("test_depth", float64(rank+3))
		e.histogram("test_lat_seconds", h, nil)
		e.Summary("test_write_seconds", stats.Summarize([]float64{
			0.001 * float64(rank+1), 0.002 * float64(rank+1), 0.004 * float64(rank+1),
		}))
	})
	return reg
}

func fedTestSources(n, obsCount int) []FedSource {
	out := make([]FedSource, n)
	for r := 0; r < n; r++ {
		out[r] = FedSource{Rank: fmt.Sprint(r), Samples: fedTestRegistry(r, obsCount).Gather()}
	}
	return out
}

// The tentpole determinism invariant: federated exposition is byte-identical
// regardless of the order scrapes arrive in, and clean under the same
// collision scan a single registry must pass.
func TestFederateShuffledOrderByteIdentical(t *testing.T) {
	sources := fedTestSources(5, 200)
	var want bytes.Buffer
	if err := WriteSamples(&want, Federate(sources)); err != nil {
		t.Fatal(err)
	}
	if err := CheckSamples(Federate(sources)); err != nil {
		t.Fatalf("federated output fails exposition check: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]FedSource(nil), sources...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var got bytes.Buffer
		if err := WriteSamples(&got, Federate(shuffled)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: shuffled scrape order changed federated bytes", trial)
		}
	}
}

// Federate is a per-scrape string-keyed fold over every input sample (label
// keys, fold map, per-rank label copies), so its budget is per output sample
// and well above zero — ~17 measured. The bound catches the merge going
// accidentally quadratic or per-byte, not a missing fast path: the record
// paths stay 0-alloc, only rendering pays this.
func TestFederateMergeAllocsPerSampleBounded(t *testing.T) {
	const bound = 24.0
	sources := fedTestSources(6, 100)
	samples := len(Federate(sources))
	if samples == 0 {
		t.Fatal("federation merged nothing")
	}
	perOp := testing.AllocsPerRun(200, func() { Federate(sources) })
	if perSample := perOp / float64(samples); perSample > bound {
		t.Errorf("Federate allocates %.1f/sample (%.0f/op over %d samples), bound %.0f",
			perSample, perOp, samples, bound)
	} else {
		t.Logf("Federate: %.1f allocs/sample over %d samples", perSample, samples)
	}
}

func fedValue(t *testing.T, samples []Sample, name string, labels ...string) float64 {
	t.Helper()
	key := labelKey(sortLabels(labels))
	for _, s := range samples {
		if s.Name == name && labelKey(s.Labels) == key {
			return s.Value
		}
	}
	t.Fatalf("sample %s%v not in federated output", name, labels)
	return 0
}

// The merge algebra itself: counters sum, histogram series sum bucket-wise
// with min/max extremes, gauges become per-rank series plus rollups,
// summary quantiles stay per-rank while their companions merge.
func TestFederateMergeSemantics(t *testing.T) {
	sources := fedTestSources(3, 50)
	fed := Federate(sources)

	if got := fedValue(t, fed, "test_shared_total"); got != 100+200+300 {
		t.Errorf("shared counter sum = %v, want 600", got)
	}
	for r := 0; r < 3; r++ {
		if got := fedValue(t, fed, "test_ops_total", "server", fmt.Sprint(r)); got != float64(10+r) {
			t.Errorf("disjoint counter rank %d = %v, want %d", r, got, 10+r)
		}
		if got := fedValue(t, fed, "test_depth", FedRankLabel, fmt.Sprint(r)); got != float64(r+3) {
			t.Errorf("per-rank gauge rank %d = %v, want %d", r, got, r+3)
		}
	}
	if got := fedValue(t, fed, "test_depth_min"); got != 3 {
		t.Errorf("gauge min rollup = %v, want 3", got)
	}
	if got := fedValue(t, fed, "test_depth_max"); got != 5 {
		t.Errorf("gauge max rollup = %v, want 5", got)
	}

	// Histogram: every series (each bucket, count, sum) is the exact sum of
	// the per-rank series; min/max take fleet extremes.
	var perRank [3][]Sample
	for r := range perRank {
		perRank[r] = sources[r].Samples
	}
	sumOf := func(name string, labels ...string) float64 {
		var total float64
		key := labelKey(sortLabels(labels))
		for r := range perRank {
			for _, s := range perRank[r] {
				if s.Name == name && labelKey(s.Labels) == key {
					total += s.Value
				}
			}
		}
		return total
	}
	if got, want := fedValue(t, fed, "test_lat_seconds_count"), sumOf("test_lat_seconds_count"); got != want {
		t.Errorf("histogram count = %v, want %v", got, want)
	}
	if got, want := fedValue(t, fed, "test_lat_seconds_sum"), sumOf("test_lat_seconds_sum"); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	for _, s := range fed {
		if s.Name != "test_lat_seconds_bucket" {
			continue
		}
		if want := sumOf(s.Name, s.Labels...); s.Value != want {
			t.Errorf("bucket %v = %v, want %v", s.Labels, s.Value, want)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := range perRank {
		for _, s := range perRank[r] {
			if s.Name == "test_lat_seconds_min" && s.Value < lo {
				lo = s.Value
			}
			if s.Name == "test_lat_seconds_max" && s.Value > hi {
				hi = s.Value
			}
		}
	}
	if got := fedValue(t, fed, "test_lat_seconds_min"); got != lo {
		t.Errorf("histogram min = %v, want %v", got, lo)
	}
	if got := fedValue(t, fed, "test_lat_seconds_max"); got != hi {
		t.Errorf("histogram max = %v, want %v", got, hi)
	}

	// Summary: per-rank quantile series, merged count.
	for r := 0; r < 3; r++ {
		fedValue(t, fed, "test_write_seconds", "quantile", "0.5", FedRankLabel, fmt.Sprint(r))
	}
	if got := fedValue(t, fed, "test_write_seconds_count"); got != 9 {
		t.Errorf("summary count = %v, want 9", got)
	}
	if got := fedValue(t, fed, "test_write_seconds_min"); got != 0.001 {
		t.Errorf("summary min = %v, want 0.001", got)
	}
	if got := fedValue(t, fed, "test_write_seconds_max"); got != 0.012 {
		t.Errorf("summary max = %v, want 0.012", got)
	}
}

// Counter and histogram merges are associative: federating an already
// federated subset with the remainder equals federating everything at once.
// (Gauge and quantile series are per-rank by design, so associativity is
// scoped to the summing/extreme kinds — filter to those.)
func TestFederateAssociativeForSummedKinds(t *testing.T) {
	summed := func(samples []Sample) []Sample {
		var out []Sample
		for _, s := range samples {
			if opFor(s) != opPerRank {
				out = append(out, s)
			}
		}
		return out
	}
	sources := fedTestSources(4, 100)
	all := summed(Federate(sources))

	ab := Federate(sources[:2])
	regrouped := Federate([]FedSource{
		{Rank: "ab", Samples: summed(ab)},
		sources[2],
		sources[3],
	})
	got := summed(regrouped)
	if len(got) != len(all) {
		t.Fatalf("regrouped federation has %d summed samples, want %d", len(got), len(all))
	}
	for i := range all {
		if all[i].Name != got[i].Name || labelKey(all[i].Labels) != labelKey(got[i].Labels) || all[i].Value != got[i].Value {
			t.Fatalf("sample %d: regrouped %v=%v differs from flat %v=%v",
				i, got[i].Name, got[i].Value, all[i].Name, all[i].Value)
		}
	}
}

// Concurrent observes while the federator gathers, under -race: the merge
// must stay clean, and once the writers quiesce two gathers must render
// byte-identically.
func TestFederatorConcurrentObserves(t *testing.T) {
	fed := NewFederator()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := range 4 {
		var c, g atomic.Int64
		h := NewHistogram(DefaultDurationBuckets())
		reg := NewRegistry()
		reg.Collect(func(e *Emitter) {
			e.Counter("test_conc_total", float64(c.Load()))
			e.histogram("test_conc_seconds", h, nil)
			e.Gauge("test_conc_depth", float64(g.Load()))
		})
		fed.AddRegistry(fmt.Sprint(r), reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Observe(float64(i%10) / 1e4)
				g.Store(int64(i % 7))
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := CheckSamples(fed.Gather()); err != nil {
			t.Fatalf("mid-flight federated gather not exposable: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	var a, b bytes.Buffer
	if err := fed.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := fed.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("quiesced federated exposition not byte-stable")
	}
}

// A dead source degrades the fleet view (up=0, no samples) instead of
// blanking it, and an HTTP source round-trips through /metrics.json.
func TestFederatorSourcesAndMeta(t *testing.T) {
	reg := fedTestRegistry(0, 20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		reg.WriteJSON(w)
	}))
	defer srv.Close()

	fed := NewFederator()
	fed.AddRegistry("0", fedTestRegistry(1, 20))
	fed.AddURL("1", srv.URL)
	fed.AddFunc("2", func() ([]Sample, error) { return nil, fmt.Errorf("replica down") })

	out := fed.Gather()
	if err := CheckSamples(out); err != nil {
		t.Fatalf("federated output with meta series not exposable: %v", err)
	}
	if got := fedValue(t, out, "damaris_fleet_sources"); got != 3 {
		t.Errorf("fleet sources = %v, want 3", got)
	}
	for rank, want := range map[string]float64{"0": 1, "1": 1, "2": 0} {
		if got := fedValue(t, out, "damaris_fleet_source_up", FedRankLabel, rank); got != want {
			t.Errorf("source up[%s] = %v, want %v", rank, got, want)
		}
	}
	// The scraped source contributed real samples: the shared counter sums
	// the in-process rank (rank 1's registry: 200) and the HTTP rank
	// (rank 0's registry: 100).
	if got := fedValue(t, out, "test_shared_total"); got != 300 {
		t.Errorf("shared counter across in-process + HTTP sources = %v, want 300", got)
	}

	// A nil federator and an empty one are inert but serve.
	var nilFed *Federator
	if nilFed.Gather() != nil {
		t.Error("nil federator not inert")
	}
	nilFed.AddFunc("x", func() ([]Sample, error) { return nil, nil })
	nilFed.AddURL("y", "http://unused.invalid")
}

// A peer's /metrics.json is read up to maxScrapeBytes: a valid document one
// byte longer makes that source read as down, and the others stay intact.
func TestFederatorCapsScrapeBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"metrics":`)
		w.Write(bytes.Repeat([]byte(" "), maxScrapeBytes-len(`{"metrics":[]}`)+1))
		io.WriteString(w, `[]}`)
	}))
	defer srv.Close()

	fed := NewFederator()
	fed.AddRegistry("0", fedTestRegistry(0, 20))
	fed.AddURL("1", srv.URL)
	out := fed.Gather()
	for rank, want := range map[string]float64{"0": 1, "1": 0} {
		if got := fedValue(t, out, "damaris_fleet_source_up", FedRankLabel, rank); got != want {
			t.Errorf("source up[%s] = %v, want %v", rank, got, want)
		}
	}
	if got := fedValue(t, out, "test_shared_total"); got != 100 {
		t.Errorf("shared counter from the in-process source = %v, want 100", got)
	}
}

func TestSamplesFromJSONRoundTrip(t *testing.T) {
	samples := fedTestRegistry(2, 30).Gather()
	back, err := SamplesFromJSON(SamplesJSON(samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(samples) {
		t.Fatalf("round trip lost samples: %d -> %d", len(samples), len(back))
	}
	for i := range samples {
		a, b := samples[i], back[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Value != b.Value || labelKey(a.Labels) != labelKey(b.Labels) {
			t.Fatalf("sample %d changed in round trip: %+v -> %+v", i, a, b)
		}
	}
	if _, err := SamplesFromJSON([]MetricJSON{{Name: "x", Kind: "banana"}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
