package aggregate

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/obs"
	"damaris/internal/stats"
)

// memEpochWriter renders each merged epoch as a real DSF byte stream in
// memory, so tests can assert byte identity of what a backend would store.
type memEpochWriter struct {
	mu      sync.Mutex
	objects map[string][]byte
	attrs   map[string]map[string]string
	order   []string
}

func newMemEpochWriter() *memEpochWriter {
	return &memEpochWriter{
		objects: make(map[string][]byte),
		attrs:   make(map[string]map[string]string),
	}
}

func (w *memEpochWriter) PersistAsWith(name string, entries []*metadata.Entry, attrs map[string]string) error {
	var buf bytes.Buffer
	dw, err := dsf.NewWriter(&buf)
	if err != nil {
		return err
	}
	for k, v := range attrs {
		dw.SetAttribute(k, v)
	}
	metas := make([]dsf.ChunkMeta, len(entries))
	datas := make([][]byte, len(entries))
	for i, e := range entries {
		metas[i] = dsf.ChunkMeta{
			Name:      e.Key.Name,
			Iteration: e.Key.Iteration,
			Source:    e.Key.Source,
			Layout:    e.Layout,
			Global:    e.Global,
		}
		datas[i] = e.Bytes()
	}
	if err := dw.WriteChunks(metas, datas, nil); err != nil {
		return err
	}
	if err := dw.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.objects[name] = append([]byte(nil), buf.Bytes()...)
	w.attrs[name] = attrs
	w.order = append(w.order, name)
	w.mu.Unlock()
	return nil
}

func (w *memEpochWriter) snapshot() (map[string][]byte, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	objs := make(map[string][]byte, len(w.objects))
	for k, v := range w.objects {
		objs[k] = v
	}
	return objs, append([]string(nil), w.order...)
}

// memberEntries builds a deterministic dataset for one (member, epoch) pair.
func memberEntries(member int, epoch int64) []*metadata.Entry {
	lay := layout.MustNew(layout.Float32, 64)
	var out []*metadata.Entry
	for src := 0; src < 2; src++ {
		data := make([]byte, lay.Bytes())
		for i := range data {
			data[i] = byte(member*31 + int(epoch)*7 + src + i)
		}
		out = append(out, &metadata.Entry{
			Key:    metadata.Key{Name: fmt.Sprintf("var%d", src), Iteration: epoch, Source: member*10 + src},
			Layout: lay,
			Inline: data,
		})
	}
	return out
}

// runShuffled drives one aggregator with the given members and epochs, each
// member submitting from its own goroutine with a seeded random delay
// pattern, and returns the committed objects plus their emission order.
// Per-member epoch order stays ascending (the protocol's requirement); what
// the seed shuffles is the interleaving across members — the fan-in arrival
// order.
func runShuffled(t *testing.T, members []int, epochs int, seed int64) (map[string][]byte, []string) {
	t.Helper()
	w := newMemEpochWriter()
	agg, err := New(Config{
		Mode:    "core",
		Members: members,
		Sink: &StoreSink{
			Writer:     w,
			ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) },
			MemberAttr: "servers",
			Mode:       "core",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	starts := make([]chan struct{}, len(members))
	for i := range starts {
		starts[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i, m int) {
			defer wg.Done()
			<-starts[i]
			for e := int64(0); e < int64(epochs); e++ {
				if err := <-agg.Submit(m, e, memberEntries(m, e)); err != nil {
					t.Error(err)
				}
			}
			agg.MemberDone(m)
		}(i, m)
	}
	// Release members in a seed-dependent order to shuffle arrival.
	for _, i := range rng.Perm(len(members)) {
		close(starts[i])
	}
	wg.Wait()
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if st.Epochs != int64(epochs) {
		t.Errorf("Epochs = %d, want %d", st.Epochs, epochs)
	}
	if st.Contributions != int64(epochs*len(members)) {
		t.Errorf("Contributions = %d, want %d", st.Contributions, epochs*len(members))
	}
	return w.snapshot()
}

// The satellite's core claim: shuffled fan-in arrival orders (exercised
// under -race via concurrent member goroutines) yield byte-identical
// per-node objects, emitted in strictly ascending epoch order, exactly one
// per epoch.
func TestFanInShuffledArrivalByteIdentical(t *testing.T) {
	members := []int{3, 5, 9}
	const epochs = 6
	ref, refOrder := runShuffled(t, members, epochs, 1)
	if len(ref) != epochs {
		t.Fatalf("objects = %d, want %d (one per epoch)", len(ref), epochs)
	}
	for i, name := range refOrder {
		want := fmt.Sprintf("node0000_it%06d.dsf", i)
		if name != want {
			t.Errorf("emission[%d] = %s, want %s (ascending epochs)", i, name, want)
		}
	}
	for seed := int64(2); seed < 6; seed++ {
		got, _ := runShuffled(t, members, epochs, seed)
		for name, b := range ref {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("seed %d: object %s differs from reference", seed, name)
			}
		}
	}
}

// Merged objects must carry the contributing member list, ascending,
// regardless of arrival order — what dsf-inspect shows as the servers
// behind a per-node object.
func TestMergedObjectListsContributors(t *testing.T) {
	w := newMemEpochWriter()
	agg, err := New(Config{
		Members: []int{7, 4},
		Sink: &StoreSink{
			Writer:     w,
			ObjectName: func(e int64) string { return fmt.Sprintf("node0001_it%06d.dsf", e) },
			MemberAttr: "servers",
			Mode:       "core",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch7 := agg.Submit(7, 0, memberEntries(7, 0))
	ch4 := agg.Submit(4, 0, memberEntries(4, 0))
	if err := <-ch7; err != nil {
		t.Fatal(err)
	}
	if err := <-ch4; err != nil {
		t.Fatal(err)
	}
	agg.MemberDone(7)
	agg.MemberDone(4)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	attrs := w.attrs["node0001_it000000.dsf"]
	if attrs["servers"] != "4,7" {
		t.Errorf("servers attr = %q, want \"4,7\"", attrs["servers"])
	}
	if attrs["aggregate"] != "core" {
		t.Errorf("aggregate attr = %q, want core", attrs["aggregate"])
	}
	// Merged chunk order: member 4's entries before member 7's.
	r, err := dsf.OpenReaderAt(bytes.NewReader(w.objects["node0001_it000000.dsf"]),
		int64(len(w.objects["node0001_it000000.dsf"])))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	chunks := r.Chunks()
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	if chunks[0].Source != 40 || chunks[2].Source != 70 {
		t.Errorf("chunk sources = %d,%d..., want member 4 first then 7", chunks[0].Source, chunks[2].Source)
	}
}

// An epoch where no member has data is acked without committing an object.
func TestEmptyEpochCommitsNothing(t *testing.T) {
	w := newMemEpochWriter()
	agg, err := New(Config{
		Members: []int{0, 1},
		Sink:    &StoreSink{Writer: w, ObjectName: func(e int64) string { return fmt.Sprintf("it%d.dsf", e) }, MemberAttr: "servers"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := agg.Submit(0, 0, nil)
	b := agg.Submit(1, 0, nil)
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	if err := <-b; err != nil {
		t.Fatal(err)
	}
	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	objs, _ := w.snapshot()
	if len(objs) != 0 {
		t.Errorf("empty epoch committed objects: %v", objs)
	}
	st := agg.Stats()
	if st.EmptyEpochs != 1 || st.Epochs != 0 {
		t.Errorf("stats = %+v, want 1 empty epoch", st)
	}
}

// A sink failure must reach every contributor of the epoch — that is the
// path the pipeline's failure accounting (and chunk release liveness)
// depends on.
func TestSinkErrorReachesAllContributors(t *testing.T) {
	agg, err := New(Config{
		Members: []int{0, 1},
		Sink:    failSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := agg.Submit(0, 0, memberEntries(0, 0))
	b := agg.Submit(1, 0, memberEntries(1, 0))
	if err := <-a; err == nil {
		t.Error("member 0 did not see the commit failure")
	}
	if err := <-b; err == nil {
		t.Error("member 1 did not see the commit failure")
	}
	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if st := agg.Stats(); st.CommitFailures != 1 {
		t.Errorf("CommitFailures = %d, want 1", st.CommitFailures)
	}
}

type failSink struct{}

func (failSink) CommitEpoch(int64, []int, []*metadata.Entry) error {
	return fmt.Errorf("storage down")
}
func (failSink) Close() error { return nil }

// Submitting for an unknown member fails fast instead of stalling the
// epoch protocol.
func TestUnknownMemberRejected(t *testing.T) {
	agg, err := New(Config{Members: []int{1}, Sink: failSink{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-agg.Submit(2, 0, nil); err == nil {
		t.Error("unknown member accepted")
	}
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
}

// Submit never blocks behind a stalled sink: the members' flow windows, not
// the aggregator, bound what the leader holds. RingMax counts every
// contribution submitted and not yet committed — here all six, the first
// stuck in its commit.
func TestRingDepthBounded(t *testing.T) {
	block := make(chan struct{})
	w := &blockingSink{release: block}
	agg, err := New(Config{Members: []int{0}, Sink: w})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan error
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for e := int64(0); e < 6; e++ {
			chans = append(chans, agg.Submit(0, e, memberEntries(0, e)))
		}
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit blocked behind a stalled sink")
	}
	if st := agg.Stats(); st.RingMax != 6 {
		t.Errorf("RingMax = %d with the sink stalled, want the 6 contributions held", st.RingMax)
	}
	close(block)
	for _, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	agg.MemberDone(0)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if st := agg.Stats(); st.RingMax != 6 || st.RingDepth.Min != 0 {
		t.Errorf("RingMax = %d, depth min %v after the drain, want 6 and 0", st.RingMax, st.RingDepth.Min)
	}
}

type blockingSink struct {
	release chan struct{}
	once    sync.Once
}

func (s *blockingSink) CommitEpoch(int64, []int, []*metadata.Entry) error {
	s.once.Do(func() { <-s.release })
	return nil
}
func (s *blockingSink) Close() error { return nil }

// A member that finishes without contributing to a pending epoch must still
// let that epoch complete: MemberDone wakes a leader waiting for the epoch
// so completeness is re-evaluated, and the epoch commits with the
// contributors it has.
func TestMemberDoneCompletesPendingEpoch(t *testing.T) {
	w := newMemEpochWriter()
	agg, err := New(Config{
		Members: []int{0, 1},
		Sink: &StoreSink{Writer: w,
			ObjectName: func(e int64) string { return fmt.Sprintf("it%06d.dsf", e) },
			MemberAttr: "servers", Mode: "core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := agg.Submit(0, 0, memberEntries(0, 0))
	// The contribution is held, and the leader waits for the sibling's,
	// when the sibling declares itself done without ever contributing.
	if st := agg.Stats(); st.RingMax != 1 || st.Epochs != 0 {
		t.Fatalf("stats before MemberDone = %+v, want 1 contribution held and no epoch", st)
	}
	time.Sleep(10 * time.Millisecond)
	agg.MemberDone(1)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	agg.MemberDone(0)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	objs, _ := w.snapshot()
	if len(objs) != 1 {
		t.Fatalf("objects = %d, want 1", len(objs))
	}
	if got := w.attrs["it000000.dsf"]["servers"]; got != "0" {
		t.Errorf("servers attr = %q, want \"0\"", got)
	}
}

// countSink acks every epoch without writing.
type countSink struct {
	mu     sync.Mutex
	epochs int
}

func (s *countSink) CommitEpoch(int64, []int, []*metadata.Entry) error {
	s.mu.Lock()
	s.epochs++
	s.mu.Unlock()
	return nil
}
func (s *countSink) Close() error { return nil }

// The slowest-sibling durability window: when one member races ahead, the
// epoch lifetime observed at each commit measures how many epochs the fast
// member had already submitted — the figure core.Deploy's buffer bound must
// cover.
func TestDurabilityWindowTracksSlowestSibling(t *testing.T) {
	agg, err := New(Config{Mode: "core", Members: []int{0, 1}, Sink: &countSink{}})
	if err != nil {
		t.Fatal(err)
	}
	// Member 0 races three epochs ahead before member 1 contributes at all.
	var fast []<-chan error
	for e := int64(0); e < 3; e++ {
		fast = append(fast, agg.Submit(0, e, nil))
	}
	var slow []<-chan error
	for e := int64(0); e < 3; e++ {
		slow = append(slow, agg.Submit(1, e, nil))
	}
	for i := range fast {
		if err := <-fast[i]; err != nil {
			t.Fatal(err)
		}
		if err := <-slow[i]; err != nil {
			t.Fatal(err)
		}
	}
	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	st := agg.Stats()
	if st.DurabilityWindow.N != 3 {
		t.Fatalf("durability window samples = %d, want 3", st.DurabilityWindow.N)
	}
	// Epoch 0 commits with member 0 already at epoch 2: lifetime 2 epochs;
	// epochs 1 and 2 shrink to 1 and 0.
	if st.DurabilityWindowMax != 2 {
		t.Fatalf("DurabilityWindowMax = %d, want 2", st.DurabilityWindowMax)
	}
	if st.DurabilityWindow.Max != 2 || st.DurabilityWindow.Min != 0 {
		t.Fatalf("durability window summary = %+v, want max 2 min 0", st.DurabilityWindow)
	}
}

// TestStatsEmitExposable pins the regression where the durability-window
// gauge was named exactly like the `_max` companion the summary on the same
// family auto-emits: the duplicate series (and duplicate TYPE line) made
// Prometheus reject the whole scrape whenever aggregation was on. Emitting
// at both tiers mirrors how core wires PipelineStats.
func TestStatsEmitExposable(t *testing.T) {
	s := Stats{
		Mode:                "core",
		Members:             2,
		Epochs:              5,
		Contributions:       10,
		MergedChunks:        7,
		MergedBytes:         1 << 20,
		RingDepth:           stats.Summarize([]float64{1, 2, 3}),
		RingMax:             3,
		DurabilityWindow:    stats.Summarize([]float64{0, 1, 2}),
		DurabilityWindowMax: 2,
	}
	reg := obs.NewRegistry()
	reg.Collect(func(e *obs.Emitter) {
		s.Emit(e, "tier", "node")
		s.Emit(e, "tier", "global")
	})
	if err := reg.CheckExposition(); err != nil {
		t.Fatal(err)
	}
}
