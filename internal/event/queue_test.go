package event

import (
	"testing"
	"time"
)

// waitParked returns once q's owner is blocked in Park.
func waitParked(t *testing.T, q *Queue) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		q.mu.Lock()
		parked := q.parked
		q.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatal("owner never parked")
}

// parkAsync runs one Park on its own goroutine, waits until it blocks, and
// delivers what it returned.
func parkAsync(t *testing.T, q *Queue) <-chan bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- q.Park() }()
	waitParked(t, q)
	return done
}

func recvPark(t *testing.T, done <-chan bool) (open bool) {
	t.Helper()
	select {
	case open = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parked owner was not resumed")
	}
	return open
}

// The queue's wake contract: a write never resumes a parked owner, any other
// event, Nudge and Close do; a nudge that arrives while the owner runs is
// kept for its next Park; Nudge reaches every linked loop; and closed queues
// drain before they report !open.
func TestQueueParkNudgeClose(t *testing.T) {
	q, sib := NewQueue(), NewQueue()
	LinkQueues([]*Queue{q, sib})
	done := parkAsync(t, q)
	q.Push(Event{Kind: WriteNotification, Iteration: 1})
	q.Push(Event{Kind: WriteNotification, Iteration: 1, Source: 1})
	select {
	case <-done:
		t.Fatal("a write notification resumed a parked owner")
	default:
	}
	if w := q.Wakes(); w != 0 {
		t.Fatalf("wakeups = %d before anything had to be acted on", w)
	}
	q.Push(Event{Kind: EndIteration, Iteration: 1})
	if !recvPark(t, done) {
		t.Fatal("Park after EndIteration reported !open")
	}
	if w := q.Wakes(); w != 1 {
		t.Fatalf("wakeups = %d after one resume, want 1", w)
	}
	// The whole backlog is there, in push order.
	for i, want := range []Kind{WriteNotification, WriteNotification, EndIteration} {
		if ev, ok := q.TryPop(); !ok || ev.Kind != want {
			t.Fatalf("event %d = %v, %v, want %v", i, ev.Kind, ok, want)
		}
	}

	// Nudge resumes the parked owner and every sibling loop.
	done, sibDone := parkAsync(t, q), parkAsync(t, sib)
	sib.Nudge()
	if !recvPark(t, done) || !recvPark(t, sibDone) {
		t.Fatal("Park after Nudge reported !open")
	}
	// Nudge and a non-write push while the owner runs: the next Park returns
	// at once, without counting a wake-up.
	q.Nudge()
	q.Push(Event{Kind: UserSignal})
	if !q.Park() {
		t.Fatal("Park after a nudge while running reported !open")
	}
	if w := q.Wakes(); w != 2 {
		t.Fatalf("wakeups = %d, want 2 (a Park that did not block is no wake-up)", w)
	}
	if ev, ok := q.TryPop(); !ok || ev.Kind != UserSignal {
		t.Fatal("signal lost")
	}

	// Close resumes the owner; a write still queued is there to drain, and
	// only once it is popped does Park report !open.
	done = parkAsync(t, q)
	q.Push(Event{Kind: WriteNotification, Iteration: 3, Source: 3})
	q.Close()
	if !recvPark(t, done) {
		t.Fatal("closed queue reported !open with an event left")
	}
	if ev, ok := q.TryPop(); !ok || ev.Source != 3 {
		t.Fatal("closed queue did not drain")
	}
	if q.Park() {
		t.Fatal("Park on a closed drained queue should report !open")
	}
}

// No lost wake: a loop that parks exactly as a client nudges it is resumed —
// the nudge either finds it parked or leaves a mark its Park sees.
func TestQueueNudgeNotLost(t *testing.T) {
	const rounds = 5000
	q, sib := NewQueue(), NewQueue()
	LinkQueues([]*Queue{q, sib})
	resumed := make(chan struct{})
	go func() {
		defer close(resumed)
		for sib.Park() {
			resumed <- struct{}{}
		}
	}()
	for i := 0; i < rounds; i++ {
		// The sibling's loop is anywhere between reporting the previous
		// nudge and parking again.
		q.Nudge()
		select {
		case <-resumed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the nudge was lost, the loop stayed parked", i)
		}
	}
	sib.Close()
	<-resumed
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
