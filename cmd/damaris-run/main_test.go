package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
)

// runWorld is main without the process: the knob flags parsed onto a fresh
// Config, then a 6-rank world (two nodes of two clients and a dedicated
// core) that writes on each of its 4 steps. The report goes to stdout.
func runWorld(t *testing.T, out string, compress bool, stdout io.Writer, knobArgs ...string) error {
	t.Helper()
	cfg := &config.Config{}
	fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
	cfg.BindFlags(fs)
	if err := fs.Parse(knobArgs); err != nil {
		t.Fatal(err)
	}
	return run(cfg, options{ranks: 6, coresPerNode: 3, steps: 4, outputEvery: 1,
		outDir: out, backend: "damaris", compress: compress, bufMB: 64}, stdout)
}

func TestRunWritesEveryIterationFile(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compress bool
		args     []string
	}{
		{name: "defaults"},
		{name: "synchronous", args: []string{"-persist-workers", "0"}},
		{name: "sharded-compressed", compress: true,
			args: []string{"-shards", "2", "-persist-workers", "2", "-encode-workers", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			if err := runWorld(t, out, tc.compress, io.Discard, tc.args...); err != nil {
				t.Fatal(err)
			}
			// The dedicated core is the last rank of each node: 2 and 5.
			for node, srv := range []int{2, 5} {
				for it := 0; it < 4; it++ {
					path := filepath.Join(out, fmt.Sprintf("node%04d_srv%04d_it%06d.dsf", node, srv, it))
					f, err := os.Open(path)
					if err != nil {
						t.Error(err)
						continue
					}
					if st, err := f.Stat(); err != nil {
						t.Error(err)
					} else if _, err := dsf.OpenReaderAt(f, st.Size()); err != nil {
						t.Errorf("%s: %v", path, err)
					}
					f.Close()
				}
			}
		})
	}
}

// A knob out of range is config's error, raised before any rank starts —
// and so is a backend that does not exist, which used to panic inside rank 0.
func TestRunRejectsBadFlagsBeforeDeploying(t *testing.T) {
	for _, args := range [][]string{{"-persist-workers", "-1"}, {"-gzip-level", "11"}} {
		out := filepath.Join(t.TempDir(), "out")
		err := runWorld(t, out, false, io.Discard, args...)
		if err == nil || !strings.HasPrefix(err.Error(), "config:") {
			t.Errorf("%v: error %v, want a config: error", args, err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%v: the world deployed and created %s", args, out)
		}
	}
	out := filepath.Join(t.TempDir(), "out")
	err := run(&config.Config{}, options{ranks: 6, coresPerNode: 3, steps: 1, outputEvery: 1,
		outDir: out, backend: "foo"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown -backend "foo"`) {
		t.Errorf("-backend foo: error %v", err)
	}
}

// The report ends with the plane's registry in the Prometheus text format —
// the same families, with the inline executor (-persist-workers 0) as with
// writers: every sample sits under its family's one TYPE line, and each
// dedicated core counts its 4 iterations durable.
func TestReportTailIsTheRegistry(t *testing.T) {
	for _, args := range [][]string{nil, {"-persist-workers", "0"}} {
		var stdout bytes.Buffer
		if err := runWorld(t, t.TempDir(), false, &stdout, args...); err != nil {
			t.Fatal(err)
		}
		report := stdout.String()
		at := strings.Index(report, "# TYPE ")
		if at < 0 || !strings.Contains(report[:at], "client write phases: n=16 ") {
			t.Fatalf("%v: no registry after the client write-phase line:\n%s", args, report)
		}
		families := map[string]bool{}
		var family string
		samples := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(report[at:], "\n"), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				if family = f[2]; families[family] {
					t.Errorf("%v: family %s has two TYPE lines", args, family)
				}
				families[family] = true
			} else if len(f) != 2 || !strings.HasPrefix(f[0], family) || samples[f[0]] {
				t.Errorf("%v: %q is not a new sample of family %s", args, line, family)
			} else {
				samples[f[0]] = true
			}
		}
		for _, want := range []string{"damaris_pipeline_flush_seconds", "damaris_pipeline_batch_size",
			"damaris_server_spare_seconds_total", "damaris_shard_events_total", "damaris_stage_seconds"} {
			if !families[want] {
				t.Errorf("%v: the report has no %s family", args, want)
			}
		}
		for f := range families {
			if strings.HasPrefix(f, "damaris_control_") {
				t.Errorf("%v: the report still has a %s family", args, f)
			}
		}
		for _, srv := range []string{"2", "5"} {
			if line := `damaris_pipeline_completed_total{server="` + srv + `"} 4` + "\n"; !strings.Contains(report[at:], line) {
				t.Errorf("%v: report lacks %q", args, line)
			}
		}
	}
}
