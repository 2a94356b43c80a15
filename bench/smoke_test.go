package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"damaris/internal/aggregate"
	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/store"
)

// The traced run must take the same code path as the untraced one: every
// optional interface the program type-asserts is still there behind the
// wrappers.
var (
	_ core.Persister        = (*persister)(nil)
	_ core.BatchPersister   = (*persister)(nil)
	_ core.StoreStatser     = (*persister)(nil)
	_ aggregate.EpochWriter = (*persister)(nil)
	_ store.Backend         = (*backend)(nil)
	_ store.ObjectStater    = (*backend)(nil)
	_ store.Backend         = (*cachedBackend)(nil)
	_ store.ObjectStater    = (*cachedBackend)(nil)
	_ store.CachedOpener    = (*cachedBackend)(nil)
)

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// maxDeclaredBound is the largest bound the driver's contract admits;
// BENCHMARK.json states each metric's bound capped at it.
const maxDeclaredBound = 0.25

func readDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode holds BENCHMARK.json and the program to the
// same names, units and directions.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if d.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, workloads are sized for %d", d.RunSeconds, referenceSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: declared %q, program %q", i, d.Workloads[i].Name, w.Name)
		}
	}
	var declared []metricDef
	for _, m := range endToEnd {
		if m.Declared {
			declared = append(declared, m)
		}
	}
	if len(d.EndToEnd) != len(declared) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(d.EndToEnd), len(declared))
	}
	for i, m := range declared {
		got := d.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Bound != min(m.Bound, maxDeclaredBound) ||
			(got.Better == "lower") != m.Lower || !name.MatchString(m.Name) {
			t.Errorf("end-to-end %d: declared %+v, program %s [%s] bound %v lower %v", i, got, m.Name, m.Unit, min(m.Bound, maxDeclaredBound), m.Lower)
		}
		if got.Bound <= 0 || got.Bound > maxDeclaredBound || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("%s: bound %v better %q", got.Name, got.Bound, got.Better)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the program", len(d.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := d.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || !name.MatchString(m.Name) {
			t.Errorf("per-layer %d: declared %+v, program %+v", i, got, m)
		}
	}
}

func smokeRoot(t *testing.T) string {
	t.Helper()
	dir, _, err := dataRoot("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func smokeSegment(t *testing.T, root string, w workload, seed int64, traced bool) *segResult {
	t.Helper()
	res, err := runSegment(segConfig{
		w: w.scaled(1.0 / 20), seed: seed, traced: traced,
		dir: segmentDir(root, w.Name, traced, 0, int(seed)), cap: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmoke runs every workload at a twentieth of its size and checks what
// must hold however loaded the machine is: names, counts, verification. The
// workloads run side by side — the paced ones mostly sleep — so timings mean
// nothing here and none is asserted.
func TestSmoke(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) { t.Parallel(); smokeWorkload(t, w) })
	}
}

func smokeWorkload(t *testing.T, w workload) {
	res := smokeSegment(t, smokeRoot(t), w, 1, false)
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.failed, res.attempted, res.messages)
	}
	// The matrix: every declared metric everywhere, the latencies where
	// README says they mean something.
	want := []string{"setup_s", "ack_p50_ms", "ack_p90_ms", "cpu_s_per_user_gb",
		"stored_bytes_per_user_byte", "alloc_bytes_per_user_byte", "heap_sys_mb"}
	if w.ComputeMS > 0 {
		want = append(want, "write_phase_p50_ms", "write_phase_p95_ms")
	} else {
		want = append(want, "durable_mb_s")
	}
	if w.Reader {
		want = append(want, "read_p50_ms", "read_p95_ms")
	}
	got := make(map[string]bool)
	for _, m := range endToEndMetrics(w, []*segResult{res}, false) {
		got[m.Name] = true
		if m.Value <= 0 {
			t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
		}
		// Beside the reader the heap per user byte is the reader's: reported
		// for the driver, gated nowhere.
		if m.Name == "alloc_bytes_per_user_byte" && m.Gated == w.Reader {
			t.Errorf("%s: %s gated = %v", w.Name, m.Name, m.Gated)
		}
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("%s: %s is not reported", w.Name, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: reported %v, want %v", w.Name, got, want)
	}
	if res.objects < 1 || res.objects > res.iterations {
		t.Errorf("%s: %d objects for %d iterations", w.Name, res.objects, res.iterations)
	}
	stored := float64(res.store.PutBytes) / float64(res.userBytes)
	if w.Codec == dsf.None && (stored < 1 || stored > 1.01) {
		t.Errorf("%s: stored %v bytes per raw user byte", w.Name, stored)
	}
	if w.Codec != dsf.None && stored >= 1 {
		t.Errorf("%s: compression stored %v bytes per user byte", w.Name, stored)
	}
}

// TestSeedReproduces: the seed alone decides the inputs, and with them the
// exact counts. Objects per segment depend on how iterations were batched,
// which is timing, so stored bytes may differ by a header per object.
func TestSeedReproduces(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("read_beside_write")
	if a, b := genInputs(w, 1).sha256(), genInputs(w, 1).sha256(); a != b {
		t.Errorf("same seed, different inputs: %s %s", a, b)
	}
	if a, b := genInputs(w, 1).sha256(), genInputs(w, 2).sha256(); a == b {
		t.Errorf("different seeds, same inputs: %s", a)
	}
	root := smokeRoot(t)
	a, b := smokeSegment(t, root, w, 1, false), smokeSegment(t, root, w, 1, true)
	if a.iterations != b.iterations || a.userBytes != b.userBytes {
		t.Errorf("iterations %d/%d user bytes %d/%d", a.iterations, b.iterations, a.userBytes, b.userBytes)
	}
	sa := float64(a.store.PutBytes) / float64(a.userBytes)
	sb := float64(b.store.PutBytes) / float64(b.userBytes)
	if d := sa/sb - 1; d > 1e-4 || d < -1e-4 {
		t.Errorf("stored bytes per user byte %v untraced, %v traced", sa, sb)
	}
	if len(b.spans) == 0 || len(a.spans) != 0 {
		t.Errorf("spans: %d untraced, %d traced", len(a.spans), len(b.spans))
	}
	v := layerValues(w, b, []*segResult{a})
	for _, n := range []string{"client.read_p50_ms", "gateway.part_hit_rate", "store.gets_per_read", "core.client_write_p50_us"} {
		if v[n] <= 0 {
			t.Errorf("%s = %v from a traced segment with a reader", n, v[n])
		}
	}
	// No source, no metric: this workload neither aggregates nor bursts.
	for _, n := range []string{"aggregate.ring_depth_mean", "client.durable_mb_s"} {
		if _, ok := v[n]; ok {
			t.Errorf("%s reported on %s", n, w.Name)
		}
	}
}

// TestJanitorReadsWhatBackendOpens: on the object store the janitor reads
// TOCs from the part files under its root, not through Backend.Open. Should
// the store's layout move, this fails instead of the janitor misreading.
func TestJanitorReadsWhatBackendOpens(t *testing.T) {
	w, _ := findWorkload("burst_raw_obj")
	w.Vars, w.VarBytes, w.PartSize = 3, 2*stampEvery, stampEvery+1000 // chunks straddle parts
	dir := t.TempDir()
	inner, err := openBackend(w, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(w, 1)
	ow, err := inner.Create("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	dw, err := dsf.NewWriter(ow)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < w.Vars; v++ {
		meta := dsf.ChunkMeta{Name: varName(v), Layout: layout.MustNew(layout.Float32, int64(w.VarBytes/4))}
		if err := dw.WriteChunk(meta, in[0][v]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := newJanitor(w, inner, dir).readTOC("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	or, err := inner.Open("o.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer or.Close()
	r, err := dsf.OpenReaderAt(or, or.Size())
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Chunks(); !reflect.DeepEqual(got, want) || len(got) != w.Vars {
		t.Errorf("janitor read %+v, Backend.Open %+v", got, want)
	}
	if m, _ := inner.Manifest("o.dsf"); len(m.Parts) < 3 {
		t.Errorf("object has %d parts, want several", len(m.Parts))
	}
}

// TestVerifierCatches a flipped byte and a dropped iteration.
func TestVerifierCatches(t *testing.T) {
	w, _ := findWorkload("paced_large_file")
	w.Vars, w.VarBytes = 1, 2*stampEvery
	dir := t.TempDir()
	inner, err := openBackend(w, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(w, 1)
	jan := newJanitor(w, inner, dir)
	for it := int64(0); it < 2; it++ {
		ow, err := inner.Create(varName(int(it)) + ".dsf")
		if err != nil {
			t.Fatal(err)
		}
		dw, err := dsf.NewWriter(ow)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clients; c++ {
			stamp(in[c][0], it)
			meta := dsf.ChunkMeta{Name: varName(0), Iteration: it, Source: c,
				Layout: layout.MustNew(layout.Float32, int64(w.VarBytes/4))}
			if err := dw.WriteChunk(meta, in[c][0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ow.Commit(); err != nil {
			t.Fatal(err)
		}
		jan.admit(commitEvent{varName(int(it)) + ".dsf", time.Now()})
	}
	if jan.failed != 0 {
		t.Fatalf("TOC check: %v", jan.messages)
	}
	if got := jan.verifyDurableOnce(2); got.failed != 0 {
		t.Errorf("two iterations written, two expected: %v", got.messages)
	}
	if got := jan.verifyDurableOnce(3); got.failed != 1 {
		t.Errorf("dropped iteration 2 gave %d failures", got.failed)
	}
	if got := jan.verifyRetained(inner, in); got.failed != 0 || got.attempted != 4 {
		t.Errorf("clean read-back: %d of %d failed: %v", got.failed, got.attempted, got.messages)
	}
	in[1][0][stampEvery+100] ^= 1 // one bit of one client's reference
	if got := jan.verifyRetained(inner, in); got.failed != 2 {
		t.Errorf("flipped byte gave %d failures, want 2 (both iterations of client 1)", got.failed)
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, lo, hi float64, disturbed bool) metric {
		return metric{Value: v, Spread: [2]float64{lo, hi}, Disturbed: disturbed}
	}
	lower := metricDef{Lower: true, Bound: 0.15}
	for _, c := range []struct {
		old, cur metric
		def      metricDef
		want     string
	}{
		{m(10, 9, 11, false), m(10.5, 10, 11, false), lower, "unchanged"},
		{m(10, 9, 11, false), m(14, 13, 15, false), lower, "regression"},
		{m(10, 9, 11, false), m(14, 13, 15, false), metricDef{Bound: 0.15}, "improved"},
		{m(10, 9, 11, false), m(14, 10.5, 15, false), lower, "unresolved"}, // ranges overlap
		{m(10, 9, 11, true), m(14, 13, 15, false), lower, "unresolved"},    // old side disturbed
		{m(10, 9, 11, false), m(14, 13, 15, false), metricDef{Lower: true, Bound: 0.15, Floor: 5}, "unchanged"},
		{m(10, 9, 11, false), m(0, 0, 0, false), lower, "improved"},
	} {
		if got, _ := verdict(c.old, c.cur, c.def); got != c.want {
			t.Errorf("%v -> %v: %s, want %s", c.old.Value, c.cur.Value, got, c.want)
		}
	}
}

// TestCompareMissing: a gated metric or a workload the new file lacks fails
// the comparison instead of reading as a 100 % gain.
func TestCompareMissing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, e envelope) string {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(metrics ...metric) envelope {
		return envelope{Workloads: []*workloadResult{{Name: "agg_core", Attempted: 10, Metrics: metrics}}}
	}
	heap := metric{Name: "heap_sys_mb", Value: 40, Spread: [2]float64{39, 41}, Gated: true}
	ack := metric{Name: "ack_p50_ms", Value: 3, Spread: [2]float64{2, 4}}
	full := write("full.json", run(heap, ack))
	for _, c := range []struct {
		name     string
		old, cur string
		want     int
		says     string
	}{
		{"same", full, full, 0, ""},
		{"gated metric dropped", full, write("a.json", run(ack)), 1, "heap_sys_mb                  missing from"},
		{"ungated metric dropped", full, write("b.json", run(heap)), 0, "ack_p50_ms                   missing from"},
		{"metric added", write("c.json", run(heap)), full, 0, "ack_p50_ms                   only in"},
		{"workload dropped", full, write("d.json", envelope{}), 1, "agg_core           missing from"},
		{"workload added", write("e.json", envelope{}), full, 0, "agg_core           only in"},
	} {
		var out strings.Builder
		if got := compareFiles(c.old, c.cur, &out, devNull{}); got != c.want || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", c.name, got, c.want, c.says, out.String())
		}
	}
}

// TestDriverLine runs the command as the driver does and parses its last
// line.
func TestDriverLine(t *testing.T) {
	t.Parallel()
	var line driverLine
	out := filepath.Join(t.TempDir(), "out.json")
	code := realMain([]string{"--workload", "agg_core", "--seed", "3", "--seconds", "1", "--trace", "0", "-out", out},
		devNull{}, devNull{})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var env envelope
	if err := readJSON(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Loop != "closed" || len(env.Workloads) != 1 {
		t.Fatalf("envelope: %+v", env)
	}
	b, _ := json.Marshal(report(devNull{}, &env, true))
	if err := json.Unmarshal(b, &line); err != nil || !line.Correct {
		t.Fatalf("driver line %s: %v", b, err)
	}
	// With --trace 0 the driver line carries exactly the declared metrics.
	d := readDeclared(t)
	if len(line.Metrics) != len(d.EndToEnd) {
		t.Errorf("driver line has %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(d.EndToEnd))
	}
	for _, m := range d.EndToEnd {
		if v, ok := line.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("driver line: %s = %+v", m.Name, v)
		}
	}
	// With --trace 1 it carries every per-layer name, whichever the workload
	// produced.
	traced := envelope{Layers: []*layerResult{{Workload: "agg_core", Attempted: 1,
		Metrics: layerMetrics(map[string]float64{"host.gomaxprocs": 2})}}}
	line = report(devNull{}, &traced, true)
	if len(line.Metrics) != len(d.PerLayer) || line.Metrics["host.gomaxprocs"].Value != 2 {
		t.Errorf("traced driver line has %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(d.PerLayer))
	}
	for _, m := range d.PerLayer {
		if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("traced driver line: %s = %+v", m.Name, v)
		}
	}
}

type devNull struct{}

func (devNull) Write(p []byte) (int, error) { return len(p), nil }
