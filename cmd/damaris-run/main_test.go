package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"damaris/internal/config"
	"damaris/internal/dsf"
	"damaris/internal/store"
)

// runWorld is main without the process: the knob flags parsed onto a fresh
// Config, then a 6-rank world on two nodes of three cores that writes on each
// of its 4 steps through the named strategy. Under damaris each node is two
// clients and a dedicated core. The report goes to stdout.
func runWorld(t *testing.T, out, backend string, stdout io.Writer, knobArgs ...string) error {
	t.Helper()
	cfg := &config.Config{}
	fs := flag.NewFlagSet("damaris-run", flag.ContinueOnError)
	cfg.BindFlags(fs)
	if err := fs.Parse(knobArgs); err != nil {
		t.Fatal(err)
	}
	return run(cfg, options{ranks: 6, coresPerNode: 3, steps: 4, outputEvery: 1,
		outDir: out, backend: backend, bufMB: 64}, stdout)
}

// Every strategy commits each iteration's objects to the one backend the
// run names — file://<-out> unless -persist-backend says otherwise — each
// under its strategy's name, each verifying, each chunk in the run's codec
// (the collective baseline writes raw chunks whatever -codec says). A spill
// dir that is the output directory adds nothing to its listing.
func TestRunWritesEveryIterationFile(t *testing.T) {
	for _, tc := range []struct {
		name, backend string
		obj           bool // -persist-backend obj://<tmp>
		spill         bool // -spill-dir <out>
		args          []string
	}{
		{name: "defaults", backend: "damaris"},
		{name: "one-writer", backend: "damaris", args: []string{"-persist-workers", "1", "-persist-queue", "1"}},
		{name: "sharded-compressed", backend: "damaris",
			args: []string{"-codec", "shuffle+gzip", "-shards", "2", "-persist-workers", "2", "-encode-workers", "2"}},
		{name: "fpp-compressed", backend: "fpp", args: []string{"-codec", "shuffle+gzip"}},
		{name: "collective", backend: "collective"},
		{name: "fpp-obj", backend: "fpp", obj: true},
		{name: "spill-into-out", backend: "damaris", spill: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			url, args := "file://"+out, tc.args
			if tc.obj {
				url = "obj://" + t.TempDir()
				args = append(args, "-persist-backend", url)
			}
			if tc.spill {
				args = append(args, "-spill-dir", out)
			}
			if err := runWorld(t, out, tc.backend, io.Discard, args...); err != nil {
				t.Fatal(err)
			}
			var want []string
			for it := 0; it < 4; it++ {
				switch tc.backend {
				case "damaris":
					// The dedicated core is the last rank of each node: 2 and 5.
					for node, srv := range []int{2, 5} {
						want = append(want, fmt.Sprintf("node%04d_srv%04d_it%06d.dsf", node, srv, it))
					}
				case "fpp":
					for rank := 0; rank < 6; rank++ {
						want = append(want, fmt.Sprintf("rank%05d_it%06d.dsf", rank, it))
					}
				case "collective":
					for part := 0; part < 2; part++ {
						want = append(want, fmt.Sprintf("shared_it%06d_part%04d.dsf", it, part))
					}
				}
			}
			slices.Sort(want)
			codec := dsf.None
			if slices.Contains(args, "-codec") && tc.backend != "collective" {
				codec = dsf.ShuffleGzip
			}
			b, err := store.Open(url)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			objs, err := b.Objects()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, o := range objs {
				got = append(got, o.Name)
				or, err := b.Open(o.Name)
				if err != nil {
					t.Fatal(err)
				}
				r, err := dsf.OpenReaderAt(or, or.Size())
				if err != nil {
					t.Fatalf("%s: %v", o.Name, err)
				}
				if err := r.Verify(); err != nil {
					t.Errorf("%s: %v", o.Name, err)
				}
				for _, m := range r.Chunks() {
					if m.Codec != codec {
						t.Errorf("%s: chunk %s has codec %v, want %v", o.Name, m.Name, m.Codec, codec)
					}
				}
				or.Close()
			}
			if !slices.Equal(got, want) {
				t.Errorf("objects %v, want %v", got, want)
			}
		})
	}
}

// A knob out of range is config's error, raised before any rank starts or
// anything is opened, whatever the strategy — and so is a backend that does
// not exist, which used to panic inside rank 0.
func TestRunRejectsBadFlagsBeforeDeploying(t *testing.T) {
	for _, tc := range []struct {
		backend string
		args    []string
	}{
		{"damaris", []string{"-persist-workers", "-1"}},
		{"damaris", []string{"-persist-workers", "0"}},
		{"damaris", []string{"-gzip-level", "11"}},
		{"fpp", []string{"-codec", "bogus"}},
		{"collective", []string{"-persist-backend", "obj://d?part_size=1"}},
	} {
		out := filepath.Join(t.TempDir(), "out")
		err := runWorld(t, out, tc.backend, io.Discard, tc.args...)
		if err == nil || !strings.HasPrefix(err.Error(), "config:") {
			t.Errorf("-backend %s %v: error %v, want a config: error", tc.backend, tc.args, err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("-backend %s %v: the world deployed and created %s", tc.backend, tc.args, out)
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
// the same families with one writer behind a deeper queue as at the
// defaults: every sample sits under its family's one TYPE line, and each
// dedicated core counts its 4 iterations durable. Over an object store each
// rank's store figures are its own, so the fleet sum of
// damaris_store_commits_total is the number of manifests on disk.
func TestReportTailIsTheRegistry(t *testing.T) {
	objRoot := t.TempDir()
	for _, args := range [][]string{nil, {"-persist-workers", "1", "-persist-queue", "4"}, {"-persist-backend", "obj://" + objRoot}} {
		var stdout bytes.Buffer
		if err := runWorld(t, t.TempDir(), "damaris", &stdout, args...); err != nil {
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
		if len(args) == 2 && args[0] == "-persist-backend" {
			var commits float64
			for _, line := range strings.Split(report[at:], "\n") {
				if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "damaris_store_commits_total{") {
					v, err := strconv.ParseFloat(f[1], 64)
					if err != nil {
						t.Fatal(err)
					}
					commits += v
				}
			}
			manifests, err := filepath.Glob(filepath.Join(objRoot, "manifests", "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(manifests) != 8 || commits != float64(len(manifests)) {
				t.Errorf("%v: damaris_store_commits_total sums to %v over the servers, %d manifests on disk (want 8)",
					args, commits, len(manifests))
			}
		}
	}
}
