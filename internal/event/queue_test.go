package event

import (
	"testing"
	"time"
)

// running returns q as its owner leaves it after a first Park: a queue whose
// loop has not started yet counts as asleep.
func running(q *Queue) *Queue {
	q.nudge(false)
	q.Park()
	return q
}

// waitParked returns once q's owner, which ran before, is blocked in Park.
func waitParked(t *testing.T, q *Queue) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		q.mu.Lock()
		parked := !q.running
		q.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatal("owner never parked")
}

// parkResult is what one Park call returned.
type parkResult struct{ nudged, open bool }

// parkAsync runs one Park on its own goroutine and waits until it blocks.
func parkAsync(t *testing.T, q *Queue) <-chan parkResult {
	t.Helper()
	done := make(chan parkResult, 1)
	go func() {
		nudged, open := q.Park()
		done <- parkResult{nudged, open}
	}()
	waitParked(t, q)
	return done
}

func recvPark(t *testing.T, done <-chan parkResult) parkResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("parked owner was not resumed")
		return parkResult{}
	}
}

// The queue's wake contract: a write never resumes a parked owner, any other
// event, Nudge and Close do; a nudge that arrives while the owner runs is
// kept for its next Park; closed queues drain before they report !open; and
// StealPop takes an approved head from a running owner only.
func TestQueueParkNudgeClose(t *testing.T) {
	q := running(NewQueue())
	done := parkAsync(t, q)
	q.Push(Event{Kind: WriteNotification, Iteration: 1})
	q.Push(Event{Kind: WriteNotification, Iteration: 1, Source: 1})
	select {
	case <-done:
		t.Fatal("a write notification resumed a parked owner")
	default:
	}
	if w, _ := q.Wakes(); w != 0 {
		t.Fatalf("wakeups = %d before anything had to be acted on", w)
	}
	q.Push(Event{Kind: EndIteration, Iteration: 1})
	if r := recvPark(t, done); r.nudged || !r.open {
		t.Fatalf("Park after EndIteration = %+v, want not nudged, open", r)
	}
	if w, h := q.Wakes(); w != 1 || h != 0 {
		t.Fatalf("wakeups, hints = %d, %d after one resume, want 1, 0", w, h)
	}
	// The whole backlog is there, in push order.
	for i, want := range []Kind{WriteNotification, WriteNotification, EndIteration} {
		if ev, ok := q.TryPop(); !ok || ev.Kind != want {
			t.Fatalf("event %d = %v, %v, want %v", i, ev.Kind, ok, want)
		}
	}

	// Nudge resumes a parked owner and says so.
	done = parkAsync(t, q)
	q.Nudge()
	if r := recvPark(t, done); !r.nudged || !r.open {
		t.Fatalf("Park after Nudge = %+v, want nudged, open", r)
	}
	// Nudge and a non-write push while the owner runs: the next Park returns
	// at once, without counting a wake-up.
	q.Nudge()
	q.Push(Event{Kind: UserSignal})
	if nudged, open := q.Park(); !nudged || !open {
		t.Fatalf("Park after a nudge while running = %v, %v", nudged, open)
	}
	if w, _ := q.Wakes(); w != 2 {
		t.Fatalf("wakeups = %d, want 2 (a Park that did not block is no wake-up)", w)
	}
	// Before its loop first parks, a queue counts as asleep: nothing to steal.
	fresh := NewQueue()
	fresh.Push(Event{Kind: WriteNotification})
	if ev, ok := fresh.StealPop(func(Event) bool { return true }); ok {
		t.Fatalf("stole %v from a loop that has not started", ev)
	}
	if ev, ok := q.TryPop(); !ok || ev.Kind != UserSignal {
		t.Fatal("signal lost")
	}

	// StealPop only takes the head when the accept callback approves; an
	// EndIteration head blocks stealing entirely (order events are pinned).
	q.Push(Event{Kind: EndIteration, Iteration: 2})
	q.Push(Event{Kind: WriteNotification, Iteration: 3, Source: 3})
	if _, ok := q.StealPop(func(ev Event) bool { return ev.Kind == WriteNotification }); ok {
		t.Fatal("stole a non-write head")
	}
	if ev, ok := q.StealPop(func(Event) bool { return false }); ok {
		t.Fatalf("accept=false still stole %v", ev)
	}
	if ev, ok := q.StealPop(func(Event) bool { return true }); !ok || ev.Kind != EndIteration {
		t.Fatal("StealPop did not take the approved head")
	}
	// A parked owner's backlog waits for nobody: not stealable.
	if nudged, _ := q.Park(); nudged { // consumes the EndIteration's wake mark
		t.Fatal("stale nudge")
	}
	done = parkAsync(t, q)
	if ev, ok := q.StealPop(func(Event) bool { return true }); ok {
		t.Fatalf("stole %v from a parked owner", ev)
	}

	// Close resumes the owner; the write pushed behind the stolen head is
	// still there, and only once it is popped does Park report !open.
	q.Close()
	if r := recvPark(t, done); !r.open {
		t.Fatal("closed queue reported !open with an event left")
	}
	if ev, ok := q.TryPop(); !ok || ev.Source != 3 {
		t.Fatal("closed queue did not drain")
	}
	if _, open := q.Park(); open {
		t.Fatal("Park on a closed drained queue should report !open")
	}
}

// A push hints a sibling only when it finds its own loop running behind more
// than the threshold — never for a loop that is merely asleep — and the hint
// goes to one parked sibling.
func TestQueueStealHintOnlyBehindARunningOwner(t *testing.T) {
	const threshold = 2
	qs := []*Queue{running(NewQueue()), running(NewQueue()), running(NewQueue())}
	LinkQueues(qs, threshold)
	victim := qs[0]
	sib1, sib2 := parkAsync(t, qs[1]), parkAsync(t, qs[2])

	// Owner asleep: a backlog of writes far past the threshold hints nobody.
	owner := parkAsync(t, victim)
	for i := 0; i < 4*threshold; i++ {
		victim.Push(Event{Kind: WriteNotification})
	}
	for i, q := range qs[1:] {
		if w, h := q.Wakes(); w != 0 || h != 0 {
			t.Fatalf("sibling %d: wakeups, hints = %d, %d while the victim slept", i+1, w, h)
		}
	}
	victim.Push(Event{Kind: EndIteration})
	recvPark(t, owner)

	// Owner running (it has not parked again), backlog past the threshold:
	// the next push resumes exactly one sibling, the nearest in the ring.
	victim.Push(Event{Kind: WriteNotification})
	if r := recvPark(t, sib1); !r.nudged {
		t.Fatal("hinted sibling not told to look for work")
	}
	if _, h := qs[1].Wakes(); h != 1 {
		t.Fatalf("nearest sibling counted %d hints, want 1", h)
	}
	select {
	case <-sib2:
		t.Fatal("one hint resumed two siblings")
	default:
	}
	// With the nearest sibling now running, the hint reaches the next parked one.
	victim.Push(Event{Kind: WriteNotification})
	if r := recvPark(t, sib2); !r.nudged {
		t.Fatal("second sibling not hinted")
	}

	// At or under the threshold nothing is hinted, running owner or not.
	for {
		if _, ok := victim.TryPop(); !ok {
			break
		}
	}
	qs[1].Park() // consume the sticky marks left on the running sibling
	again := parkAsync(t, qs[1])
	for i := 0; i < threshold; i++ {
		victim.Push(Event{Kind: WriteNotification})
	}
	select {
	case <-again:
		t.Fatal("hint at the threshold, want only past it")
	default:
	}
	qs[1].Close()
	recvPark(t, again)
}

// No lost hint: a sibling that parks exactly as the victim's backlog crosses
// the threshold is resumed — the crossing push either finds it parked or
// leaves a mark its Park sees.
func TestQueueStealHintNotLost(t *testing.T) {
	const threshold, rounds = 2, 5000
	victim, thief := running(NewQueue()), NewQueue()
	LinkQueues([]*Queue{victim, thief}, threshold)
	hinted := make(chan struct{})
	go func() {
		defer close(hinted)
		for {
			nudged, open := thief.Park()
			if !open {
				return
			}
			if nudged {
				hinted <- struct{}{}
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		// The victim's loop is running and never parks again; the last of
		// these pushes crosses the threshold while the thief is anywhere
		// between reporting the previous hint and parking again.
		for j := 0; j <= threshold; j++ {
			victim.Push(Event{Kind: WriteNotification})
		}
		select {
		case <-hinted:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the hint was lost, the thief stayed parked", i)
		}
		for {
			if _, ok := victim.TryPop(); !ok {
				break
			}
		}
	}
	thief.Close()
	<-hinted
}

// The queue reuses its array once drained and slides a never-empty backlog
// down instead of growing with everything ever pushed.
func TestQueueStorageReused(t *testing.T) {
	q := NewQueue()
	ev := Event{Kind: WriteNotification, Name: "v"}
	pushPop := func() {
		q.Push(ev)
		q.TryPop()
	}
	pushPop()
	if n := testing.AllocsPerRun(1000, pushPop); n != 0 {
		t.Errorf("push+pop allocates %v times per op, want 0", n)
	}
	burst := func() {
		for i := 0; i < 33; i++ {
			q.Push(ev)
		}
		for i := 0; i < 33; i++ {
			q.TryPop()
		}
	}
	burst()
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Errorf("a drained 33-event burst allocates %v times, want 0", n)
	}
	// Never quite empty: one event always stays queued.
	q.Push(ev)
	for i := 0; i < 100000; i++ {
		q.Push(ev)
		q.TryPop()
	}
	if c := cap(q.items); c > 64 {
		t.Errorf("array grew to %d slots behind a backlog of 1", c)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
}
