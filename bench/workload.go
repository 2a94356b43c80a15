package main

import (
	"fmt"
	"strings"

	"damaris/internal/dsf"
)

// clients is the number of compute ranks in every workload: the sandbox has
// two vCPUs, and the compute phase is a sleep, so two clients plus the
// dedicated core(s) fit without the clients stealing the core they feed.
const clients = 2

// warmup is the number of leading iterations of a segment whose samples are
// dropped: the flow window, the part-buffer pool and the allocator's free
// list reach steady state within the first few.
const warmup = 8

// workload is one fixed input shape. Names are cited by later issues and
// must not change; sizes are per segment at -seconds 10 and scale linearly.
type workload struct {
	Name string
	Why  string

	Vars     int // variables per client
	VarBytes int // bytes per variable per iteration

	ComputeMS float64 // compute-phase sleep; 0 = burst (flow window only)
	Codec     dsf.Codec
	Backend   string // "file" or "obj"
	PartSize  int64  // obj multipart split

	Workers, Queue, Encode, Shards int

	Servers   int  // dedicated cores
	Aggregate bool // <aggregate mode="core">

	// Modelled slow device: log-normal sleep on store.OpCommit.
	JitterMedianMS, JitterSigma, JitterCapMS float64

	Reader bool // one ReadChunk goroutine beside the writers
	Retain int  // newest objects the janitor keeps

	Iterations int // per segment at -seconds 10
}

const mib = 1 << 20

var workloads = []workload{
	{
		Name: "paced_large_file",
		Why:  "paper regime (Fig. 2): 8 MiB/iteration hidden behind a 25 ms compute phase; shm copy bandwidth and the dsf-to-file stream do the work, encode/hash/gateway/aggregate none",
		Vars: 4, VarBytes: mib, ComputeMS: 25, Backend: "file",
		Workers: 1, Queue: 2, Shards: 1, Servers: 1, Retain: 16, Iterations: 150,
	},
	{
		Name: "paced_small_jitter",
		Why:  "64 small writes per iteration onto a slow, variable store (log-normal commit, median 8 ms): per-call cost and whether pipeline depth keeps storage jitter out of the write phase",
		Vars: 32, VarBytes: 32 << 10, ComputeMS: 20, Backend: "file",
		Workers: 2, Queue: 4, Shards: 2, Servers: 1, Retain: 16, Iterations: 180,
		JitterMedianMS: 8, JitterSigma: 0.8, JitterCapMS: 80,
	},
	{
		Name: "burst_gzip_file",
		Why:  "encode-bound: shuffle+gzip on two encode workers does nearly all the work, the store very little; durable throughput and compression ratio live here",
		Vars: 4, VarBytes: 256 << 10, Codec: dsf.ShuffleGzip, Backend: "file",
		Workers: 1, Queue: 2, Encode: 2, Shards: 1, Servers: 1, Retain: 16, Iterations: 100,
	},
	{
		Name: "burst_raw_obj",
		Why:  "byte-moving path with no encode: dsf writer, 1 MiB part split, SHA-256, put, manifest commit; where the copy/alloc budget must show",
		Vars: 4, VarBytes: mib, Backend: "obj", PartSize: mib,
		Workers: 1, Queue: 2, Shards: 1, Servers: 1, Retain: 16, Iterations: 400,
	},
	{
		Name: "read_beside_write",
		Why:  "gateway reads (70 % newest 8, 30 % uniform over 128 MiB retained vs a 16 MiB part cache) beside paced obj writes: a write-side gain that costs reads shows only here",
		Vars: 4, VarBytes: 256 << 10, ComputeMS: 20, Backend: "obj", PartSize: mib,
		Workers: 1, Queue: 2, Shards: 1, Servers: 1, Retain: 64, Iterations: 180,
		Reader: true,
	},
	{
		Name: "agg_core",
		Why:  "two dedicated cores merged by <aggregate mode=core>: the only workload that runs the ring, the merge, the leader commit and a multi-server deployment",
		Vars: 4, VarBytes: 256 << 10, ComputeMS: 20, Backend: "obj", PartSize: mib,
		Workers: 1, Queue: 2, Shards: 1, Servers: 2, Aggregate: true, Retain: 16, Iterations: 150,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iterBytes is the user data of one iteration, all clients together.
func (w workload) iterBytes() int64 { return int64(clients * w.Vars * w.VarBytes) }

// scaled returns the workload with its per-segment iteration count scaled
// from the 10-second reference to the requested run length, keeping a few
// iterations beyond the warm-up so every metric has a sample.
func (w workload) scaled(factor float64) workload {
	w.Iterations = int(float64(w.Iterations)*factor + 0.5)
	if w.Iterations < warmup+4 {
		w.Iterations = warmup + 4
	}
	return w
}

func varName(v int) string { return fmt.Sprintf("v%02d", v) }

// configXML renders the deployment exactly as a user would write it. The
// shared buffer holds the flow window plus two write phases per dedicated
// core, plus slack for first-fit fragmentation.
func (w workload) configXML() string {
	perServer := w.iterBytes() / int64(w.Servers)
	buffer := int64(w.Servers) * (int64(w.Queue+2)*perServer + mib)
	var b strings.Builder
	fmt.Fprintf(&b, "<simulation>\n")
	fmt.Fprintf(&b, "  <buffer size=\"%d\" allocator=\"mutex\" cores=\"%d\"/>\n", buffer, w.Servers)
	fmt.Fprintf(&b, "  <pipeline workers=\"%d\" queue=\"%d\" encode_workers=\"%d\" gzip_level=\"%d\"/>\n",
		w.Workers, w.Queue, w.Encode, dsf.DefaultGzipLevel)
	if w.Shards > 1 {
		fmt.Fprintf(&b, "  <shards count=\"%d\"/>\n", w.Shards)
	}
	if w.Aggregate {
		fmt.Fprintf(&b, "  <aggregate mode=\"core\"/>\n")
	}
	fmt.Fprintf(&b, "  <layout name=\"field\" type=\"float\" dimensions=\"%d\"/>\n", w.VarBytes/4)
	for v := 0; v < w.Vars; v++ {
		fmt.Fprintf(&b, "  <variable name=\"%s\" layout=\"field\"/>\n", varName(v))
	}
	fmt.Fprintf(&b, "</simulation>\n")
	return b.String()
}
