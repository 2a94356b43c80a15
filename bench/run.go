package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// segments is the number of fresh deployments an end-to-end run makes per
// workload; every metric is the median over them.
const segments = 3

// referenceSeconds is the run length the workloads' iteration counts are
// sized for.
const referenceSeconds = 10

// runner carries what every workload run shares.
type runner struct {
	seed     int64
	seconds  int
	root     string
	log      io.Writer
	traceOut io.Writer // span JSONL, nil = discard
	// reruns is how many disturbed segments may still be run again: a
	// noisy host must not double the command's run time.
	reruns int
}

// workloadResult is one workload's outcome: end-to-end metrics from the
// untraced segments, per-layer metrics from the traced one.
type workloadResult struct {
	Name           string   `json:"name"`
	Segments       int      `json:"segments"`
	Disturbed      bool     `json:"disturbed"`
	HostStealShare float64  `json:"host_steal_share"`
	InputSHA256    string   `json:"input_sha256"`
	Attempted      int      `json:"attempted_ops"`
	Failed         int      `json:"failed_ops"`
	Failures       []string `json:"failures,omitempty"`
	Metrics        []metric `json:"metrics"`

	segs []*segResult
}

// layerResult is one workload's per-layer table from its traced segment.
type layerResult struct {
	Workload  string   `json:"workload"`
	Disturbed bool     `json:"disturbed"`
	Attempted int      `json:"attempted_ops"`
	Failed    int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// envelope is the -out file.
type envelope struct {
	Schema      string            `json:"schema"`
	GitSHA      string            `json:"git_sha"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NProc       int               `json:"nproc"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Device      string            `json:"device"`
	InputSHA256 string            `json:"input_sha256"`
	Loop        string            `json:"loop"`
	Workloads   []*workloadResult `json:"workloads"`
	Layers      []*layerResult    `json:"layers"`
}

func newEnvelope(seed int64, seconds int, device string) *envelope {
	e := &envelope{
		Schema: "damaris-bench/1", GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Device: device,
		// Every client issues iteration i+1 only after EndIteration(i)
		// returned; the reader issues a read only after the previous one
		// returned plus its think time.
		Loop: "closed",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

// sealInputs digests the per-workload input digests into the envelope's.
func (e *envelope) sealInputs(digests []string) {
	h := sha256.New()
	for _, d := range digests {
		io.WriteString(h, d)
	}
	e.InputSHA256 = hex.EncodeToString(h.Sum(nil))
}

// segment runs one segment, and once more if the hypervisor took more than
// stealThreshold of the CPU while it ran and a rerun is left. It reports
// whether the result it returns is still disturbed.
func (r *runner) segment(w workload, seg int, traced bool) (*segResult, bool, error) {
	perSegment := time.Duration(r.seconds) * time.Second / segments
	for attempt := 0; ; attempt++ {
		res, err := runSegment(segConfig{
			w: w, seed: r.seed, seg: seg, traced: traced,
			dir: segmentDir(r.root, w.Name, traced, seg, attempt),
			// A disturbed burst segment would otherwise run 3-4x its plan.
			cap: perSegment * 14 / 10,
		})
		if err != nil {
			return nil, false, err
		}
		if res.steal <= stealThreshold {
			return res, false, nil
		}
		if attempt > 0 || r.reruns == 0 {
			return res, true, nil
		}
		r.reruns--
		fmt.Fprintf(r.log, "# %s segment %d: steal %.1f %% > %.0f %%, running it again\n",
			w.Name, seg, 100*res.steal, 100*stealThreshold)
	}
}

// endToEnd runs n untraced segments of a workload.
func (r *runner) endToEnd(w workload, n int) (*workloadResult, error) {
	w = w.scaled(float64(r.seconds) / referenceSeconds)
	out := &workloadResult{Name: w.Name, Segments: n, InputSHA256: genInputs(w, r.seed).sha256()}
	var steal []float64
	for seg := 0; seg < n; seg++ {
		res, disturbed, err := r.segment(w, seg, false)
		if err != nil {
			return nil, err
		}
		out.Disturbed = out.Disturbed || disturbed
		steal = append(steal, res.steal)
		out.segs = append(out.segs, res)
		out.Attempted += res.attempted
		out.Failed += res.failed
		out.Failures = append(out.Failures, res.messages...)
	}
	out.HostStealShare = median(steal)
	out.Metrics = endToEndMetrics(w, out.segs, out.Disturbed)
	return out, nil
}

// layers runs a workload's traced segment and joins its span- and
// snapshot-based metrics with the probes'. base is the untraced run the
// tracing overhead is taken against.
func (r *runner) layers(w workload, base []*segResult, probes map[string]float64) (*layerResult, error) {
	w = w.scaled(float64(r.seconds) / referenceSeconds)
	tr, disturbed, err := r.segment(w, 0, true)
	if err != nil {
		return nil, err
	}
	if r.traceOut != nil {
		if err := writeSpans(r.traceOut, w.Name, 0, tr.spans); err != nil {
			return nil, err
		}
	}
	values := layerValues(w, tr, base)
	for k, x := range probes {
		values[k] = x
	}
	return &layerResult{
		Workload: w.Name, Disturbed: disturbed,
		Attempted: tr.attempted, Failed: tr.failed, Failures: tr.messages,
		Metrics: layerMetrics(values),
	}, nil
}
