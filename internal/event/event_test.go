package event

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/plugin"
	"damaris/internal/shm"
)

func testConfig(t *testing.T) *config.Config {
	t.Helper()
	c, err := config.ParseString(`
<simulation>
  <layout name="l4" type="byte" dimensions="4"/>
  <variable name="temp" layout="l4"/>
  <event name="flush" action="do_flush" scope="local"/>
  <event name="sync_all" action="do_sync" scope="global"/>
  <event name="noaction" action="ghost"/>
</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newEngine(t *testing.T, clients int, reg *plugin.Registry) *Engine {
	t.Helper()
	e, err := NewEngine(testConfig(t), reg, metadata.NewStore(), clients, 99, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Push(Event{Iteration: int64(i)})
	}
	if q.Len() != 5 {
		t.Fatalf("Len=%d", q.Len())
	}
	for i := 0; i < 5; i++ {
		e, ok := q.TryPop()
		if !ok || e.Iteration != int64(i) {
			t.Fatalf("pop %d = %v, %v", i, e, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop on empty should fail")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue()
	q.Push(Event{Iteration: 1})
	q.Close()
	if !q.Park() {
		t.Error("a closed queue that still holds an event should report open")
	}
	if e, ok := q.TryPop(); !ok || e.Iteration != 1 {
		t.Error("TryPop should drain after close")
	}
	if q.Park() {
		t.Error("Park on a closed empty queue should report !open")
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	q := NewQueue()
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	q.Push(Event{})
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue()
	done := make(chan Event)
	go func() {
		q.Park()
		e, _ := q.TryPop()
		done <- e
	}()
	q.Push(Event{Kind: EndIteration, Iteration: 7})
	if e := <-done; e.Iteration != 7 {
		t.Errorf("parked consumer got %v", e)
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue()
	const producers, per = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(Event{Source: id, Iteration: int64(i)})
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	// Per-source FIFO must hold even with interleaving.
	last := make(map[int]int64)
	for s := range last {
		last[s] = -1
	}
	n := 0
	for {
		e, ok := q.TryPop()
		if !ok {
			break
		}
		if prev, seen := last[e.Source]; seen && e.Iteration != prev+1 {
			t.Fatalf("source %d out of order: %d after %d", e.Source, e.Iteration, prev)
		}
		last[e.Source] = e.Iteration
		n++
	}
	if n != producers*per {
		t.Errorf("drained %d, want %d", n, producers*per)
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := testConfig(t)
	if _, err := NewEngine(nil, nil, metadata.NewStore(), 1, 0, 0, ""); err == nil {
		t.Error("nil config must fail")
	}
	if _, err := NewEngine(cfg, nil, nil, 1, 0, 0, ""); err == nil {
		t.Error("nil store must fail")
	}
	if _, err := NewEngine(cfg, nil, metadata.NewStore(), 0, 0, 0, ""); err == nil {
		t.Error("zero clients must fail")
	}
}

func TestWriteNotificationStoresEntry(t *testing.T) {
	e := newEngine(t, 1, nil)
	seg, _ := shm.NewSegment(64)
	b, _ := seg.Reserve(0, 4)
	copy(b.Data(), "abcd")
	if err := e.Handle(Event{Kind: WriteNotification, Name: "temp", Iteration: 2, Source: 5, Block: b}); err != nil {
		t.Fatal(err)
	}
	entry, ok := e.Store().Get(metadata.Key{Name: "temp", Iteration: 2, Source: 5})
	if !ok {
		t.Fatal("entry not catalogued")
	}
	if string(entry.Bytes()) != "abcd" {
		t.Error("payload mismatch")
	}
	if !entry.Layout.Equal(layout.MustNew(layout.Byte, 4)) {
		t.Errorf("layout = %v (should come from config)", entry.Layout)
	}
}

// A write notification costs the dedicated core no allocation in steady
// state: the engine catalogs it in an entry the store owns and gets back once
// the iteration's owner recycles it (here the test, in production the
// persistence pipeline after the ack).
func TestHandleWriteDoesNotAllocate(t *testing.T) {
	e := newEngine(t, 1, nil)
	seg, err := shm.NewSegment(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]*shm.Block, 64)
	for i := range blocks {
		if blocks[i], err = seg.Reserve(0, 4); err != nil {
			t.Fatal(err)
		}
	}
	it := int64(0)
	iteration := func() {
		it++
		for src, b := range blocks {
			ev := Event{Kind: WriteNotification, Name: "temp", Iteration: it, Source: src, Block: b}
			if err := e.Handle(ev); err != nil {
				t.Fatal(err)
			}
		}
		e.Store().Recycle(e.Store().TakeIteration(it))
	}
	iteration()
	iteration()
	if allocs := testing.AllocsPerRun(100, iteration); allocs != 0 {
		t.Errorf("64 write notifications allocate %.1f per iteration, budget is 0", allocs)
	}
}

func TestWriteUndeclaredVariableReleasesBlock(t *testing.T) {
	e := newEngine(t, 1, nil)
	seg, _ := shm.NewSegment(64)
	b, _ := seg.Reserve(0, 4)
	err := e.Handle(Event{Kind: WriteNotification, Name: "ghost", Iteration: 0, Block: b})
	if err == nil {
		t.Fatal("expected error")
	}
	if seg.FreeBytes() != 64 {
		t.Error("block must be released on error")
	}
}

func TestWriteSizeMismatchReleasesBlock(t *testing.T) {
	e := newEngine(t, 1, nil)
	seg, _ := shm.NewSegment(64)
	b, _ := seg.Reserve(0, 8) // layout says 4
	err := e.Handle(Event{Kind: WriteNotification, Name: "temp", Iteration: 0, Block: b})
	if err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("expected size mismatch error, got %v", err)
	}
	if seg.FreeBytes() != 64 {
		t.Error("block must be released on mismatch")
	}
}

func TestWriteDynamicLayoutOverride(t *testing.T) {
	e := newEngine(t, 1, nil)
	dyn := layout.MustNew(layout.Byte, 2)
	if err := e.Handle(Event{
		Kind: WriteNotification, Name: "particles", Iteration: 1, Source: 0,
		Layout: dyn, Block: nil,
	}); err == nil {
		t.Fatal("nil block and nil inline should fail via store")
	}
}

func TestLocalSignalFiresPerClient(t *testing.T) {
	reg := plugin.NewRegistry()
	var calls []int
	reg.MustRegister("do_flush", func(ctx *plugin.Context, ev string) error {
		calls = append(calls, ctx.Source)
		return nil
	})
	e := newEngine(t, 3, reg)
	for src := 0; src < 3; src++ {
		if err := e.Handle(Event{Kind: UserSignal, Name: "flush", Iteration: 1, Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	if len(calls) != 3 {
		t.Errorf("local action fired %d times, want 3", len(calls))
	}
}

func TestGlobalSignalFiresOncePerIteration(t *testing.T) {
	reg := plugin.NewRegistry()
	count := 0
	reg.MustRegister("do_sync", func(ctx *plugin.Context, ev string) error {
		count++
		if ctx.Source != -1 {
			t.Errorf("global action source = %d, want -1", ctx.Source)
		}
		return nil
	})
	e := newEngine(t, 3, reg)
	for it := int64(0); it < 2; it++ {
		for src := 0; src < 3; src++ {
			if err := e.Handle(Event{Kind: UserSignal, Name: "sync_all", Iteration: it, Source: src}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if count != 2 {
		t.Errorf("global action fired %d times, want 2 (once per iteration)", count)
	}
}

func TestSignalErrors(t *testing.T) {
	reg := plugin.NewRegistry()
	e := newEngine(t, 1, reg)
	if err := e.Handle(Event{Kind: UserSignal, Name: "undeclared"}); err == nil {
		t.Error("undeclared event should fail")
	}
	if err := e.Handle(Event{Kind: UserSignal, Name: "noaction"}); err == nil {
		t.Error("unregistered action should fail")
	}
}

func TestActionErrorPropagates(t *testing.T) {
	reg := plugin.NewRegistry()
	boom := errors.New("boom")
	reg.MustRegister("do_flush", func(*plugin.Context, string) error { return boom })
	e := newEngine(t, 1, reg)
	if err := e.Handle(Event{Kind: UserSignal, Name: "flush"}); !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
}

func TestEndIterationFiresWhenAllClientsDone(t *testing.T) {
	e := newEngine(t, 3, nil)
	var fired []int64
	e.OnIterationEnd = func(it int64) error {
		fired = append(fired, it)
		return nil
	}
	for src := 0; src < 2; src++ {
		_ = e.Handle(Event{Kind: EndIteration, Iteration: 4, Source: src})
	}
	if len(fired) != 0 {
		t.Fatal("fired before all clients ended")
	}
	_ = e.Handle(Event{Kind: EndIteration, Iteration: 4, Source: 2})
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("fired = %v", fired)
	}
	// Next iteration works too (counter reset).
	for src := 0; src < 3; src++ {
		_ = e.Handle(Event{Kind: EndIteration, Iteration: 5, Source: src})
	}
	if len(fired) != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestClientExitFiresOnceAllGone(t *testing.T) {
	e := newEngine(t, 2, nil)
	fired := 0
	e.OnAllExited = func() error { fired++; return nil }
	_ = e.Handle(Event{Kind: ClientExit, Source: 0})
	if fired != 0 {
		t.Fatal("fired early")
	}
	_ = e.Handle(Event{Kind: ClientExit, Source: 1})
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestUnknownKind(t *testing.T) {
	e := newEngine(t, 1, nil)
	if err := e.Handle(Event{Kind: Kind(99)}); err == nil {
		t.Error("unknown kind should fail")
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("String = %q", got)
	}
	if WriteNotification.String() != "write" || UserSignal.String() != "signal" {
		t.Error("kind strings wrong")
	}
}
