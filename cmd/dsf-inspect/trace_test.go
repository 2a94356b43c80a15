package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"damaris/internal/obs"
)

// savedTrace records spans of three servers into a plane whose ring wraps,
// saves its GET /trace body to a file and returns the file and the tracer.
func savedTrace(t *testing.T) (string, *obs.Tracer) {
	t.Helper()
	plane := obs.NewPlane(32)
	tr := plane.Tracer()
	for it := int64(0); it < 12; it++ {
		for server := 0; server < 3; server++ {
			start := time.Unix(0, it*int64(time.Second)+int64(server)*int64(time.Millisecond))
			ms := func(k int64) time.Duration { return time.Duration((it*7+int64(server)*3+k)%11+1) * time.Millisecond }
			tr.RecordShard(obs.StageWrite, server, server%2, it, start, ms(0), 4096, false)
			tr.Record(obs.StagePersist, server, it, start.Add(ms(0)), ms(5), 4096, server == 2 && it == 10)
			tr.Record(obs.StageAck, server, it, start, ms(0)+ms(5)+ms(1), 0, false)
		}
	}
	if tr.Dropped() == 0 {
		t.Fatalf("ring of %d kept all %d spans; the test needs it to wrap", tr.Cap(), tr.Total())
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

// field returns the token printed after " key=" in line, without a
// trailing unit "s" (no stage name ends in one).
func field(t *testing.T, line, key string) string {
	t.Helper()
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		t.Fatalf("no %s= in %q", key, line)
	}
	v, _, _ := strings.Cut(line[i+len(key)+2:], " ")
	return strings.TrimSuffix(v, "s")
}

func g3(x float64) string { return fmt.Sprintf("%.3g", x) }

// A saved GET /trace body converted offline gives what the live views did:
// -trace-format chrome the bytes the /trace?format=chrome route served
// (WriteSpansChrome over the ring's snapshot), jsonl the body itself.
func TestTraceChromeEqualsLiveRendering(t *testing.T) {
	path, tr := savedTrace(t)
	var want bytes.Buffer
	if err := obs.WriteSpansChrome(&want, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := inspectTrace(&got, path, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("-trace-format chrome:\n%s\nwant the live rendering:\n%s", got.Bytes(), want.Bytes())
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := inspectTrace(&got, path, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Error("-trace-format jsonl does not reproduce the GET /trace body")
	}
	if err := inspectTrace(io.Discard, path, "perfetto"); err == nil {
		t.Error("an unknown -trace-format is not an error")
	}
}

// The summary prints obs.SummarizeStages's exact figures over the retained
// spans, one line per recorded stage.
func TestTraceSummaryPrintsExactStageFigures(t *testing.T) {
	path, tr := savedTrace(t)
	var out bytes.Buffer
	if err := inspectTrace(&out, path, "summary"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if want := fmt.Sprintf("%s: %d spans", path, tr.Cap()); lines[0] != want {
		t.Fatalf("summary header %q, want %q", lines[0], want)
	}
	if want := "  3 recording servers; 1 error spans"; lines[1] != want {
		t.Fatalf("summary second line %q, want %q", lines[1], want)
	}
	byStage := map[string]string{}
	for _, line := range lines[2:] {
		byStage[strings.Fields(line)[0]] = line
	}
	stages := 0
	for st, ss := range obs.SummarizeStages(tr.Snapshot()) {
		s := ss.Durations
		if s.N == 0 {
			continue
		}
		stages++
		line, ok := byStage[obs.Stage(st).String()]
		if !ok {
			t.Fatalf("no line for stage %s in\n%s", obs.Stage(st), out.String())
		}
		for key, want := range map[string]string{
			"n": strconv.Itoa(s.N), "mean": g3(s.Mean), "p50": g3(s.Median), "p95": g3(s.P95),
			"p99": g3(s.P99), "spread": g3(s.Spread()), "bytes": strconv.FormatInt(ss.Bytes, 10),
		} {
			if got := field(t, line, key); got != want {
				t.Errorf("stage %s: %s=%s, want %s (%q)", obs.Stage(st), key, got, want, line)
			}
		}
	}
	if stages != 3 || len(byStage) != stages {
		t.Fatalf("summary has %d stage lines, want %d of 3 recorded stages:\n%s", len(byStage), stages, out.String())
	}
}

// The epochs view prints obs.AnalyzeEpochs's reports, and over per-rank
// files it merges their spans into the same reports as over one file.
func TestTraceEpochsMatchAnalyzeEpochs(t *testing.T) {
	path, tr := savedTrace(t)
	var out bytes.Buffer
	if err := inspectTraceEpochs(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	reports := obs.AnalyzeEpochs(tr.Snapshot())
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if want := fmt.Sprintf("%d spans across 1 files, %d epochs", tr.Cap(), len(reports)); lines[0] != want {
		t.Fatalf("epochs header %q, want %q", lines[0], want)
	}
	lines = lines[1:]
	for _, r := range reports {
		if len(lines) < 1+len(r.Stages) {
			t.Fatalf("epoch %d: output ends early:\n%s", r.Epoch, out.String())
		}
		line := lines[0]
		if f := strings.Fields(line); f[0] != "epoch" || f[1] != strconv.FormatInt(r.Epoch, 10) {
			t.Fatalf("line %q, want epoch %d", line, r.Epoch)
		}
		for key, want := range map[string]string{
			"spans": strconv.Itoa(r.Spans), "wall": g3(r.WallSeconds), "dominant": r.DominantStage,
			"slowest-origin": strconv.Itoa(r.SlowestOrigin),
		} {
			if got := field(t, line, key); got != want {
				t.Errorf("epoch %d: %s=%s, want %s (%q)", r.Epoch, key, got, want, line)
			}
		}
		if strings.HasSuffix(line, " ERR") != r.Err {
			t.Errorf("epoch %d: err=%v, line %q", r.Epoch, r.Err, line)
		}
		for i, st := range r.Stages {
			sl := lines[1+i]
			if strings.Fields(sl)[0] != st.Stage || field(t, sl, "n") != strconv.Itoa(st.Count) ||
				field(t, sl, "max") != g3(st.MaxSeconds) || field(t, sl, "slowest-origin") != strconv.Itoa(st.SlowestOrigin) {
				t.Errorf("epoch %d stage line %q, want %+v", r.Epoch, sl, st)
			}
		}
		lines = lines[1+len(r.Stages):]
	}
	if len(lines) != 0 {
		t.Fatalf("%d lines past the last epoch: %q", len(lines), lines)
	}

	// The same spans split into one file per server merge back into the
	// same reports.
	dir := t.TempDir()
	var paths []string
	for server := 0; server < 3; server++ {
		var mine []obs.Span
		for _, sp := range tr.Snapshot() {
			if sp.Server == server {
				mine = append(mine, sp)
			}
		}
		var buf bytes.Buffer
		if err := obs.WriteSpansJSONL(&buf, mine); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("rank%d.jsonl", server))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var merged bytes.Buffer
	if err := inspectTraceEpochs(&merged, paths); err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(out.String(), "across 1 files", "across 3 files", 1)
	if merged.String() != want {
		t.Errorf("epochs over per-server files:\n%s\nwant:\n%s", merged.String(), want)
	}
}
