// Package guard holds the repository's structural rules as one test, so
// `go test ./...` enforces them: no function, method or field is dead state
// that only tests reach, no allow-list reason outlives the ROADMAP item it
// cites, no deleted design creeps back, the line budgets hold, every decoder
// has a fuzz target, and damaris-run declares at most maxRunFlags flags by
// hand. It has no non-test
// files and imports only the standard library.
package guard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// allow names the declarations deadState would fail that are kept anyway,
// as "pkg.Func", "pkg.Type.Method" or "pkg.Type.field" with pkg relative to
// the module, each with its reason. An entry whose declaration is reached,
// or no longer exists, fails the check, and so does a reason citing a
// ROADMAP item that ROADMAP.md no longer lists.
var allow = map[string]string{
	"internal/core.MemPersister.Len":        "tests of core count through it the datasets a deployment persisted",
	"internal/obs.Registry.CheckExposition": "tests of other packages check through it that their families collide with no other",
	"internal/shm.Block.Released":           "tests of other packages assert through it that no chunk is released before it is durable",
	"internal/store.Brownout":               "fault vocabulary tests compose into store.Options.Fault",
	"internal/store.Chain":                  "fault vocabulary tests compose into store.Options.Fault",
	"internal/store.FailNth":                "fault vocabulary tests compose into store.Options.Fault",
	"internal/store.FailTimes":              "fault vocabulary tests compose into store.Options.Fault",
	"internal/store.Latency":                "fault vocabulary tests compose into store.Options.Fault",
	"internal/transform.DecompressGzip":     "the reference decoder the plane encoder's tests compare against",
}

// forbidden is one row per deleted design: a line matching pattern in a file
// whose module-relative path matches in, and not except, fails the tree.
// An empty pattern forbids the file itself. plant is a file and a line the
// row must reject; the self-test writes it into a fixture.
var forbidden = []struct {
	in, except, pattern string
	tests               bool // also search _test.go files
	reason              string
	plant               [2]string
}{
	{in: `^BENCH_[^/]*\.json$`,
		reason: "there is one harness, go run ./bench, its results under bench/results/; a root-level report means a second one is creeping back",
		plant:  [2]string{"BENCH_paced.json", "{}"}},
	{in: `\.go$`, pattern: `StealPop|trySteal|ShardSteal|shards-steal`, tests: true,
		reason: "work stealing between shard loops was measured and deleted (docs/sharding.md, \"Why there is no work stealing\"); each client's events are applied by exactly one loop",
		plant:  [2]string{"internal/event/queue.go", "func (q *Queue) StealPop() {}"}},
	{in: `^internal/core/[^/]*\.go$`, pattern: `pipe (==|!=) nil|syncFails`,
		reason: "the persistence pipeline always exists and always has its writers; a nil check means the sync-baseline twin is creeping back",
		plant:  [2]string{"internal/core/server.go", "if s.pipe == nil {"}},
	{in: `^cmd/damaris-run/main\.go$`, pattern: `func report(Pipeline|Shards|Spill|Control|Store|Aggregate|Encode)`,
		reason: "damaris-run's report is the registry; a hand-formatted report printer is creeping back",
		plant:  [2]string{"cmd/damaris-run/main.go", "func reportPipeline() {}"}},
	{in: `^internal/metadata/[^/]*\.go$`, pattern: `byName`, tests: true,
		reason: "the metadata catalog is indexed by iteration only; the per-variable index had no reader outside tests and cost a map insert per write",
		plant:  [2]string{"internal/metadata/store.go", "byName map[string]int"}},
	{in: `\.go$`, pattern: `control\.(New|Tuner|Sample)|ControlMode|ShardBudget|setWindow|\) Resize\(`,
		reason: "the adaptive control plane was measured and deleted (docs/dsf.md, \"Why the pipeline's sizes are static\"); pools and the flow window are sized once",
		plant:  [2]string{"internal/core/pool.go", "func (p *pool) Resize(n int) {}"}},
	{in: `\.go$`, pattern: `RunReceiver|Forwarder|LocalForward|StageForward|StageFanAck|AggregateGlobal|AggregateForwarded|SendBytes|RecvBytes`,
		reason: "the cross-node aggregation tier was measured and deleted (docs/aggregate.md, \"Why there is no cross-node tier\"); each node merges and writes independently, as in the paper",
		plant:  [2]string{"internal/mpi/mpi.go", "func (c *Comm) SendBytes(b []byte) {}"}},
	{in: `^internal/config/knobs\.go$`, pattern: `"node"`, tests: true,
		reason: "<aggregate mode=\"node\"> went with the cross-node tier",
		plant:  [2]string{"internal/config/knobs.go", `modes := []string{"off", "core", "node"}`}},
	{in: `^internal/store/[^/]*\.go$`, except: `^internal/store/tree\.go$`, pattern: `os\.Rename\(|filepath\.WalkDir\(|syscall\.(Openat|Unlinkat|Fstat)\(`,
		reason: "both store backends sit on one directory protocol (docs/store.md, \"One directory protocol\"): tree.walk is the only walker and tree.go the only caller of the *at system calls",
		plant:  [2]string{"internal/store/objstore.go", "os.Rename(tmp, dst)"}},
	{in: `^internal/store/[^/]*\.go$`, except: `^internal/store/tree(_linux_(amd64|arm64|386|riscv64|ppc64le))?\.go$`, pattern: `syscall\.(Raw)?Syscall6?\(|SYS_`,
		reason: "tree.go makes the store's only raw system calls, on names built in a stack buffer (docs/store.md, \"Open directories and the *at calls\"), and its per-architecture files hold the only system-call numbers",
		plant:  [2]string{"internal/store/gc.go", "syscall.Syscall(syscall.SYS_UNLINKAT, dirfd, uintptr(unsafe.Pointer(p)), 0)"}},
	{in: `^internal/store/[^/]*\.go$`, except: `^internal/store/tree\.go$`, pattern: `syscall\.Rename(at)?\(`,
		reason: "tree.publish is the store's only rename, a syscall.Renameat tried before any MkdirAll (docs/store.md)",
		plant:  [2]string{"internal/store/filestore.go", "syscall.Renameat(tmpfd, tmp, dirfd, dst)"}},
	{in: `^internal/store/[^/]*\.go$`, pattern: `func (Register|Schemes)\(|OpenFunc`, tests: true,
		reason: "a backend is picked by a two-case switch on the URL's scheme; a scheme registry is creeping back",
		plant:  [2]string{"internal/store/open.go", "func Register(scheme string) {}"}},
	{in: `\.go$`, pattern: `BatchScheduler|WaitTurn`, tests: true,
		reason: "§IV-D slot scheduling was reached by no command and no workload and was deleted (docs/dsf.md, \"§IV-D slot scheduling\"); it comes back as a <schedule> knob with a workload on ROADMAP item 20's contention storage, not as a seam only tests use",
		plant:  [2]string{"internal/core/pipeline.go", "bs.WaitTurnBatch(lo, hi)"}},
	{in: `\.go$`, pattern: `dsf\.Create\(|OutputDir|^func Create\(path string\)`, tests: true,
		reason: "every persisted DSF stream goes through a store.Backend that <store backend> names (docs/store.md, \"One write path\"); a second way to name the destination is creeping back",
		plant:  [2]string{"internal/dsf/dsf.go", "func Create(path string) (*Writer, error) { return nil, nil }"}},
	{in: `\.go$`, pattern: `DSFSPILL|SpillFrame|DecodeSpillFrames|ReadSpillFile`, tests: true,
		reason: "the degraded-mode spill commits DSF objects through a store.Backend like every persister (docs/store.md, \"One write path\"); a second container format for spilled iterations is creeping back",
		plant:  [2]string{"internal/dsf/spill.go", "func AppendSpillFrame(w io.Writer, iteration int64, payload []byte) {}"}},
	{in: `^(internal|cmd)/.*\.go$`, except: `^internal/(core/persist|cm1/io)\.go$`, pattern: `dsf\.NewWriter\(`,
		reason: "a DSF stream is written by the dedicated core's persister or the baselines' writer, each into a store.Backend object (docs/store.md, \"One write path\"); another dsf.NewWriter is a second writer creeping back",
		plant:  [2]string{"internal/core/scratch.go", "w, err := dsf.NewWriter(&buf)"}},
	{in: `\.go$`, pattern: `Federat|/fleet/|damaris_fleet_|X-Damaris-Forwarded|forwardedHeader|damaris_gateway_(forwards|redirects)_total`, tests: true,
		reason: "one process has one registry, and every server family carries a server label (docs/observability.md, \"One process, one registry\"); a multi-process deployment scrapes each process. Gateway replica routing comes back with the parked shared-nothing query plane and a workload that runs it",
		plant:  [2]string{"internal/obs/federate.go", "func Federate() {}"}},
	{in: `^(internal/(sim|fs|jitter|cluster|iostrat|experiment)|cmd/damaris-figures)/`, tests: true,
		reason: "the paper's figures are taken on the middleware that ships, in virtual time (internal/cm1's TestVirtualTime and its golden, docs/paper.md); the discrete-event model of a second Damaris was deleted and does not come back",
		plant:  [2]string{"internal/iostrat/iostrat.go", "package iostrat"}},
	{in: `\.go$`, pattern: `\bReplicas\b|ReplicaFaults|HedgeAfter|HedgePct|hedged\(|ErrPutTimeout|PutTimeout|put_timeout|damaris_store_(hedges|hedge_wins|put_timeouts)_total`, tests: true,
		reason: "the object store is one target with one put path (docs/store.md); replica targets, hedged puts and the put deadline ran in no workload, shared the primary's disk and made the store copy pinned bytes. A deadline comes back with ROADMAP item 5's context plumbing, abandoning nothing",
		plant:  [2]string{"internal/store/objstore.go", "func (s *ObjStore) hedged(p put) error { return nil }"}},
	{in: `\.go$`, pattern: `stats\.Accumulator|type Accumulator\b|recent\[`, tests: true,
		reason: "every streaming distribution is an obs.Histogram, whose Summary gives real quantiles at bucket edges (docs/observability.md); a Welford accumulator emits its quantiles as 0, and a ring of recent samples forgets the run and re-sorts on every scrape",
		plant:  [2]string{"internal/core/server.go", "writeDurs recent[float64]"}},
	{in: `\.go$`, pattern: `type flow struct|setFlushed|iterationDurable|addWaits`, tests: true,
		reason: "clients wait at the window on the pipeline's in-order ack, the one durability watermark, and the pipeline counts acks, bytes, write times and client waits (docs/observability.md); a second watermark the server copies acks into is creeping back",
		plant:  [2]string{"internal/core/core.go", "type flow struct {"}},
	{in: `\.go$`, pattern: `"encoding/gob"`,
		reason: "the DSF TOC is gob's wire form written by internal/dsf's own codec (docs/dsf.md); encoding/gob is only the reference its tests compare against",
		plant:  [2]string{"internal/dsf/toc.go", `import "encoding/gob"`}},
	{in: `\.go$`, except: `^internal/gateway/telemetry_test\.go$`, pattern: `GatherJSON|WriteJSON\(|MetricsDoc|stats-interval|/metrics\.json|/v1/(metrics|stats)`, tests: true,
		reason: "/metrics in the Prometheus text format is the one telemetry view (docs/observability.md); the JSON exposition, the gateway's /v1/stats and damaris-gate's stats printer repeated it and were deleted. The gateway's telemetry test alone names their routes, to see them answer 404",
		plant:  [2]string{"internal/obs/expo.go", "func (r *Registry) WriteJSON(w io.Writer) error {"}},
	{in: `^internal/(aggregate|core)/[^/]*\.go$`, pattern: `TestCrashBeforeCommit|reelect|Reelections|newRing|DefaultRingDepth`, tests: true,
		reason: "the aggregation leader is one goroutine over one locked pending map (docs/aggregate.md); the bounded fan-in ring was a second backpressure point behind the flow window, and leader terms recovered from a crash only a test hook could cause",
		plant:  [2]string{"internal/aggregate/ring.go", "func newRing(capacity int) *ring { return nil }"}},
	{in: `\.go$`, except: `^internal/obs/http_test\.go$`, pattern: `JitterReport|StageJitter|reportJitter|"GET /jitter"|\) WriteChrome\(`, tests: true,
		reason: "each telemetry quantity has one live view (docs/observability.md): stage latencies are damaris_stage_seconds on /metrics and spans leave the process once, as JSONL; exact percentiles and the Chrome rendering are dsf-inspect -trace's, offline. The obs routes test alone names the deleted route, to see it answer 404",
		plant:  [2]string{"internal/obs/http.go", "func (p *Plane) JitterReport() []StageJitter {"}},
	{in: `^internal/core/[^/]*\.go$`, pattern: `workers == 0|persistAndAck\(-1`, tests: true,
		reason: "the pipeline always has writer goroutines, so the event loop never persists (docs/sharding.md); workers=\"0\", the inline executor, was a comparison baseline no workload ran",
		plant:  [2]string{"internal/core/pipeline.go", "if p.workers == 0 {"}},
}

// required is one row per check that must stay wired in: some line of the
// file at path, relative to the module, must match pattern. plant is a
// content of that file the row must reject.
var required = []struct {
	path, pattern, reason, plant string
}{
	{path: "internal/cm1/virtual_test.go", pattern: `^func TestVirtualTime\(t \*testing\.T\) \{$`,
		reason: "the paper's comparison runs on the middleware that ships, in virtual time, and its golden is the paper's figures (docs/paper.md); the CI step below runs nothing without it",
		plant:  "//go:build goexperiment.synctest\n\npackage cm1\n"},
	{path: ".github/workflows/ci.yml", pattern: `^\s+run: GOEXPERIMENT=synctest go test -count=10 -run TestVirtualTime \./internal/cm1$`,
		reason: "go test ./... does not set GOEXPERIMENT=synctest, so this CI step is where the virtual-time harness runs: ten runs byte-identical to its golden are its determinism gate",
		plant:  "      - name: virtual time\n        run: GOEXPERIMENT=synctest go test -count=1 -run TestVirtualTime ./internal/cm1\n"},
}

// caps are line budgets in non-test Go lines (newlines, as wc -l counts
// them) over every file under dirs; they only ever go down.
var caps = []struct {
	dirs   []string
	max    int
	reason string
}{
	{[]string{"internal/core", "internal/event", "internal/metadata", "internal/config", "cmd"}, 4426,
		"ROADMAP item 3's budget for the dedicated core's composition path (5,170 before the dead exports went, 5,029 before what only examples/ used went, 4,969 before the client kept one write call per paper concept, 4,948 before the slot scheduler and the unread fields went, 4,866 before the store URL became the only destination and Deploy's default persister the only one damaris-run builds, 4,809 before the spill committed through a store.Backend and the server's growing error and latency records went, 4,757 before Deploy derived the flow window, the aggregation bound and the committed buffer in one place, 4,755 before a block became a value handle whose zero value and stale release need no nil check, 4,749 before each server registered once on the one registry and damaris-gate lost its replica flags, 4,731 before cmd/damaris-figures went with the model it printed, 4,665 before the put deadline and aggregate ring knobs went, 4,651 before the server held its shm.Segment directly and reported its counters, and planBuffer returned the segment's parts, 4,650 before the server's write times went from a ring and an accumulator to one histogram, 4,606 before damaris-run became a caller of cm1.RunWorld, with the clients' wait counters paid for, 4,560 before clients waited on the pipeline's in-order ack and the server's copies of the pipeline's counts went, 4,497 before the pipeline lost its inline executor and damaris-gate its stats printer, 4,447 before damaris-run lost its jitter printer and Server.Run its inline loop); 5,000 was the target"},
	{[]string{"internal/aggregate"}, 446,
		"the aggregation layer's budget: one tier, one sink, one leader over one locked map (956 before the cross-node tier was deleted, 633 before the fan-in ring and the leader terms went)"},
	{[]string{"internal/store"}, 2079,
		"the store seam's budget (2,535 before the directory protocol was written once); raised from 2,250 by the allocation-lean put and commit path, lowered from 2,323 when Backend.List went and the tree named its files relative to open directories, raised from 2,308 by the raw *at calls that name files from a stack buffer and their two per-architecture number files, raised from 2,389 by the numbers for linux/386, riscv64 and ppc64le, which CI vets, and openat's O_LARGEFILE for 386, lowered from 2,410 when the replica set, hedged puts and the put deadline went and the store became one target with one put path"},
}

// decoders maps each non-test file under internal/ and cmd/ that decodes
// bytes from a disk or a peer — a json or xml decode, or a
// binary.LittleEndian.Uint* read — to a Fuzz target that reaches it, as
// "pkg.FuzzName" with pkg relative to the module (ROADMAP item 11). A
// decoding file the table does not name fails, and so does an entry whose
// file decodes nothing or whose target no _test.go file of its package
// declares.
var decoders = map[string]string{
	"internal/config/config.go":       "internal/config.FuzzConfigParse",
	"internal/dsf/dsf.go":             "internal/dsf.FuzzTOCDecode",
	"internal/layout/layout.go":       "internal/dsf.FuzzTOCDecode",
	"internal/mpi/convert.go":         "internal/gateway.FuzzGatewayParams",
	"internal/obs/trace.go":           "internal/obs.FuzzReadSpansJSONL",
	"internal/store/objstore.go":      "internal/store.FuzzManifestDecode",
	"internal/transform/lz.go":        "internal/transform.FuzzPlaneLZRoundTrip",
	"internal/transform/planes.go":    "internal/transform.FuzzPlaneGzipRoundTrip",
	"internal/transform/transform.go": "internal/transform.FuzzPlaneGzipRoundTrip",
}

// decodeCall is what makes a file a decoder; fuzzDecl declares a target.
var (
	decodeCall = regexp.MustCompile(`\b(json|xml)\.(Unmarshal|NewDecoder)\(|binary\.LittleEndian\.Uint(16|32|64)\(`)
	fuzzDecl   = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
)

// runFlags is the package whose hand-declared flags are counted. Its knob
// flags come from the table in internal/config (config.BindFlags); only
// maxRunFlags run-only flags are declared by hand, and one more means a knob
// flag was added outside the table.
const (
	runFlags    = "cmd/damaris-run"
	maxRunFlags = 10
)

// flagDecls are the flag package's functions, and *flag.FlagSet's methods,
// that declare a flag.
var flagDecls = []string{
	"Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "IntVar", "Int64", "Int64Var", "String", "StringVar", "TextVar",
	"Uint", "UintVar", "Uint64", "Uint64Var", "Var",
}

func TestTree(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range check(t, root, allow, decoders) {
		t.Error(v)
	}
}

// check runs every rule against the module at root.
func check(t *testing.T, root string, allow, decoders map[string]string) []string {
	t.Helper()
	mod := load(t, root)
	return slices.Concat(deadState(mod, allow), staleCitations(t, root, allow), handFlags(mod), forbiddenMatches(t, root), missingRequired(t, root), overCaps(t, root), unfuzzedDecoders(t, root, decoders))
}

// module is every package of a module type-checked from its non-test files.
type module struct {
	path string
	fset *token.FileSet
	pkgs []*pkg
}

type pkg struct {
	rel   string // import path relative to the module
	files []*ast.File
	info  *types.Info
}

// load type-checks every package `go list ./...` names under root. Imports
// come from the compiler's export data, so a package is checked against what
// its dependencies compile to, not their source.
func load(t *testing.T, root string) *module {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
		Module                  *struct{ Path string }
		Error                   *struct{ Err string }
	}
	exports := map[string]string{}
	var own []listed
	mod := &module{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			t.Fatalf("%s: %s", p.ImportPath, p.Error.Err)
		}
		mod.path = p.Module.Path
		own = append(own, p)
	}
	fset := token.NewFileSet()
	mod.fset = fset
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})}
	for _, p := range own {
		q := &pkg{rel: strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, mod.path), "/"), info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			q.files = append(q.files, f)
		}
		if _, err := conf.Check(p.ImportPath, fset, q.files, q.info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		mod.pkgs = append(mod.pkgs, q)
	}
	return mod
}

// deadState reports every declaration no non-test code reaches, unless
// allow names it, and every allow entry that names nothing declared or
// something reached. Two kinds are checked:
//   - functions and methods, exported ones declared in internal/ ("dead
//     export") and unexported ones declared in internal/ or cmd/, reached
//     when used outside their own body;
//   - fields of structs declared in internal/, reached when read. Embedded
//     and tagged fields count as read: the one promotes methods, the other
//     is read by encoding/json or encoding/xml.
//
// A method counts as used when a method of its name is declared on, or
// called through, any interface the scan sees, since a call through an
// interface names no concrete method.
func deadState(mod *module, allow map[string]string) []string {
	u := scanUses(mod)
	reached := map[string]bool{}
	var out []string
	report := func(k string, live bool, format string) {
		reached[k] = live
		if !live && allow[k] == "" {
			out = append(out, fmt.Sprintf(format+"; delete it or name it in allow with a reason", k))
		}
	}
	for _, p := range mod.pkgs {
		internal := strings.HasPrefix(p.rel, "internal/")
		if !internal && !strings.HasPrefix(p.rel, "cmd/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				k := funcKey(mod.path, fn)
				live := u.funcs[k] || fd.Recv != nil && u.iface[fn.Name()]
				switch {
				case fd.Name.IsExported() && internal:
					report(k, live, "dead export: %s has no non-test caller")
				case !fd.Name.IsExported():
					report(k, live, "dead function: %s has no non-test use outside its own body")
				}
			}
			if internal {
				structFields(mod.fset, p.info, f, func(name string, v *types.Var) {
					report(p.rel+"."+name, u.fields[mod.fieldKey(v)], "unread field: %s is never read by non-test code")
				})
			}
		}
	}
	for k := range allow {
		if live, ok := reached[k]; !ok {
			out = append(out, fmt.Sprintf("allow-list: %s does not exist; drop the entry", k))
		} else if live {
			out = append(out, fmt.Sprintf("allow-list: %s is reached by non-test code; drop the entry", k))
		}
	}
	slices.Sort(out)
	return out
}

// uses is what the non-test code of the packages that count as callers
// reaches.
type uses struct {
	funcs  map[string]bool // funcKey of each function used outside its own body
	iface  map[string]bool // name of each method some interface declares
	fields map[string]bool // fieldKey of each field read
}

// scanUses collects uses. Objects are keyed by package, receiver type and
// name (fields by declaring line): a package checked from source and the
// same package imported from export data are distinct objects.
func scanUses(mod *module) uses {
	u := uses{map[string]bool{}, map[string]bool{}, map[string]bool{}}
	addIface := func(t types.Type) {
		add := func(t types.Type) {
			if it, ok := t.Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					u.iface[it.Method(i).Name()] = true
				}
			}
		}
		add(t)
		// sort.Sort(x) converts x to a parameter no expression here is typed as.
		if sig, ok := t.Underlying().(*types.Signature); ok {
			for v := range sig.Params().Variables() {
				add(v.Type())
			}
		}
	}
	// A map compares its keys, and == and != their operands, which reads
	// every field of a struct.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Struct:
			for v := range t.Fields() {
				u.fields[mod.fieldKey(v)] = true
				readAll(v.Type())
			}
		case *types.Array:
			readAll(t.Elem())
		}
	}
	for _, p := range mod.pkgs {
		if !caller(p.rel) {
			continue
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Signature().Recv(); recv != nil {
					addIface(recv.Type())
				}
			}
			if obj.Type() != nil {
				addIface(obj.Type())
			}
		}
		for _, obj := range p.info.Defs {
			if obj != nil && obj.Type() != nil {
				addIface(obj.Type())
			}
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
				if m, ok := tv.Type.Underlying().(*types.Map); ok {
					readAll(m.Key())
				}
			}
		}
		for _, f := range p.files {
			written := writes(f)
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
						if t := p.info.TypeOf(be.X); t != nil {
							readAll(t)
						}
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := p.info.Uses[id].(type) {
					case *types.Func:
						if obj.Pkg() != nil && obj.Origin() != self {
							u.funcs[funcKey(mod.path, obj)] = true
						}
					case *types.Var:
						if obj.IsField() && !written[id] {
							u.fields[mod.fieldKey(obj)] = true
						}
					}
					return true
				})
			}
		}
	}
	return u
}

// writes returns the field names f only assigns to: the selected name on the
// left of = or :=, and every key of a struct literal. Any other use of a
// field, ++ and += included, reads it.
func writes(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						w[sel.Sel] = true
					}
				}
			}
		case *ast.KeyValueExpr:
			// A map literal's identifier key names a value, never a field.
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id] = true
			}
		}
		return true
	})
	return w
}

// structFields calls fn with every field of a struct type written in f that
// is neither embedded, tagged nor blank, named Type.field: Type.field.sub
// inside a struct-typed field, struct@line.field in a struct no type
// declaration names.
func structFields(fset *token.FileSet, info *types.Info, f *ast.File, fn func(name string, v *types.Var)) {
	var visit func(prefix string, st *ast.StructType)
	visit = func(prefix string, st *ast.StructType) {
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				continue
			}
			for _, name := range field.Names {
				if field.Tag == nil && name.Name != "_" {
					fn(prefix+"."+name.Name, info.Defs[name].(*types.Var))
				}
			}
			ast.Inspect(field.Type, func(n ast.Node) bool {
				if inner, ok := n.(*ast.StructType); ok {
					visit(prefix+"."+field.Names[0].Name, inner)
					return false
				}
				return true
			})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				visit(n.Name.Name, st)
				return false
			}
		case *ast.StructType:
			visit(fmt.Sprintf("struct@%d", fset.Position(n.Pos()).Line), n)
			return false
		}
		return true
	})
}

// fieldKey is a field's package, the base name of its declaring file, its
// line and its name: what the object checked from source and the one
// imported from export data share. Export data keeps no columns, and under
// -trimpath it names files relative to the module, not absolutely.
func (m *module) fieldKey(v *types.Var) string {
	pos := m.fset.Position(v.Origin().Pos())
	return fmt.Sprintf("%s/%s:%d.%s", v.Pkg().Path(), filepath.Base(pos.Filename), pos.Line, v.Name())
}

// staleCitations reports each allow reason citing a ROADMAP item that the
// "Open items" section of root's ROADMAP.md does not list (as a line
// starting "N. "): an entry kept until an item is done must not outlive it.
func staleCitations(t *testing.T, root string, allow map[string]string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "ROADMAP.md"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	_, open, _ := strings.Cut(string(b), "\n## Open items\n")
	open, _, _ = strings.Cut(open, "\n## ")
	items := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. `).FindAllStringSubmatch(open, -1) {
		items[m[1]] = true
	}
	cite := regexp.MustCompile(`ROADMAP item (\d+)`)
	var out []string
	for k, reason := range allow {
		for _, m := range cite.FindAllStringSubmatch(reason, -1) {
			if !items[m[1]] {
				out = append(out, fmt.Sprintf("allow-list: %s cites ROADMAP item %s, which ROADMAP.md no longer lists; drop the entry or its citation", k, m[1]))
			}
		}
	}
	slices.Sort(out)
	return out
}

// caller reports whether uses in the package at rel keep an export alive:
// only what ships does, the commands, the benchmark and internal/ itself.
// An example, or any other package outside those, is not a caller.
func caller(rel string) bool {
	return rel == "bench" || strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "internal/")
}

// funcKey is "pkg.Func" or "pkg.Type.Method", pkg relative to the module.
func funcKey(modPath string, fn *types.Func) string {
	fn = fn.Origin()
	k := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modPath), "/")
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k += "." + n.Obj().Name()
		}
	}
	return k + "." + fn.Name()
}

// handFlags reports runFlags declaring more than maxRunFlags flags itself:
// calls of the flag package's declaring functions or *flag.FlagSet's
// declaring methods. config.BindFlags, which declares the knob flags from
// the table, is not such a call.
func handFlags(mod *module) []string {
	n := 0
	for _, p := range mod.pkgs {
		if p.rel != runFlags {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						fn, ok := p.info.Uses[sel.Sel].(*types.Func)
						if ok && fn.Pkg() != nil && fn.Pkg().Path() == "flag" && slices.Contains(flagDecls, fn.Name()) {
							n++
						}
					}
				}
				return true
			})
		}
	}
	if n > maxRunFlags {
		return []string{fmt.Sprintf("%s declares %d flags by hand, more than %d: declare a knob flag in internal/config's table", runFlags, n, maxRunFlags)}
	}
	return nil
}

// forbiddenMatches walks root, skipping hidden directories and this package
// (whose table spells every pattern), and reports each forbidden match.
func forbiddenMatches(t *testing.T, root string) []string {
	t.Helper()
	compile := func(expr string) *regexp.Regexp {
		if expr == "" {
			return nil
		}
		return regexp.MustCompile(expr)
	}
	type rule struct{ in, except, pattern *regexp.Regexp }
	rules := make([]rule, len(forbidden))
	for i, row := range forbidden {
		rules[i] = rule{compile(row.in), compile(row.except), compile(row.pattern)}
	}
	var out []string
	err := walk(root, func(rel string, path string) error {
		var lines []string
		for i, row := range forbidden {
			r := rules[i]
			if !r.in.MatchString(rel) || r.except != nil && r.except.MatchString(rel) ||
				!row.tests && strings.HasSuffix(rel, "_test.go") {
				continue
			}
			if r.pattern == nil {
				out = append(out, fmt.Sprintf("%s: forbidden file: %s", rel, row.reason))
				continue
			}
			if lines == nil {
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				lines = strings.Split(string(b), "\n")
			}
			for n, line := range lines {
				if r.pattern.MatchString(line) {
					out = append(out, fmt.Sprintf("%s:%d: matches %q: %s", rel, n+1, row.pattern, row.reason))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// missingRequired reports each required row no line of its file matches; a
// missing file matches nothing.
func missingRequired(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	for _, row := range required {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(row.path)))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`(?m)` + row.pattern).Match(b) {
			out = append(out, fmt.Sprintf("%s: no line matches %q: %s", row.path, row.pattern, row.reason))
		}
	}
	return out
}

// overCaps reports each line budget its directories exceed; a directory
// that does not exist holds no lines.
func overCaps(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	for _, c := range caps {
		n := 0
		for _, dir := range c.dirs {
			err := walk(filepath.Join(root, dir), func(rel, path string) error {
				if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
					return nil
				}
				b, err := os.ReadFile(path)
				n += bytes.Count(b, []byte("\n"))
				return err
			})
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
		}
		if n > c.max {
			out = append(out, fmt.Sprintf("%s: %d non-test lines, over the cap of %d: %s", strings.Join(c.dirs, "+"), n, c.max, c.reason))
		}
	}
	return out
}

// unfuzzedDecoders reports each decoding file under root's internal/ and cmd/
// that decoders does not map, and each entry of decoders whose file decodes
// nothing or whose target is declared nowhere.
func unfuzzedDecoders(t *testing.T, root string, decoders map[string]string) []string {
	t.Helper()
	var out []string
	decodes := map[string]bool{}
	targets := map[string]bool{}
	err := walk(root, func(rel, path string) error {
		if !strings.HasSuffix(rel, ".go") || !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(rel, "_test.go") {
			for _, m := range fuzzDecl.FindAllSubmatch(b, -1) {
				targets[filepath.ToSlash(filepath.Dir(rel))+"."+string(m[1])] = true
			}
		} else if call := decodeCall.Find(b); call != nil {
			decodes[rel] = true
			if decoders[rel] == "" {
				out = append(out, fmt.Sprintf("%s: decodes bytes (%s…) but decoders maps it to no Fuzz target; fuzz it and add the entry", rel, call))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file, target := range decoders {
		switch {
		case !decodes[file]:
			out = append(out, fmt.Sprintf("decoders: %s decodes nothing; drop the entry", file))
		case !targets[target]:
			out = append(out, fmt.Sprintf("decoders: %s maps to %s, which no _test.go file of its package declares", file, target))
		}
	}
	slices.Sort(out)
	return out
}

// walk calls fn for every regular file under dir with its slash-separated
// path relative to dir, skipping hidden directories and internal/guard.
func walk(dir string, fn func(rel, path string) error) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "internal/guard") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return fn(rel, path)
	})
}
