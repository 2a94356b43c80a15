package schedule

import (
	"testing"
	"time"
)

// fakeClock advances only through Sleep.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (f *fakeClock) Now() time.Time { return f.now }
func (f *fakeClock) Sleep(d time.Duration) {
	f.slept = append(f.slept, d)
	f.now = f.now.Add(d)
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		index, total int
		interval     time.Duration
	}{
		{0, 0, time.Second},
		{-1, 4, time.Second},
		{4, 4, time.Second},
		{0, 4, 0},
		{0, 4, -time.Second},
	}
	for i, c := range cases {
		if _, err := New(c.index, c.total, c.interval); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewWithClock(0, 1, time.Second, nil); err == nil {
		t.Error("nil clock should fail")
	}
	if _, err := New(3, 4, time.Second); err != nil {
		t.Error(err)
	}
}

func TestSlotLayout(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	s, err := NewWithClock(2, 4, 100*time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	if s.SlotWidth() != 25*time.Second {
		t.Errorf("slot width = %v", s.SlotWidth())
	}
	// Iteration 0: slot 2 opens at epoch + 2*25s.
	want := time.Unix(1050, 0)
	if got := s.SlotStart(0); !got.Equal(want) {
		t.Errorf("SlotStart(0) = %v, want %v", got, want)
	}
	// Iteration 3: epoch + 3*100 + 50.
	want = time.Unix(1000+350, 0)
	if got := s.SlotStart(3); !got.Equal(want) {
		t.Errorf("SlotStart(3) = %v, want %v", got, want)
	}
}

func TestWaitTurnSleepsUntilSlot(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	s, _ := NewWithClock(1, 2, 60*time.Second, clock)
	s.WaitTurn(0) // slot opens at t=30
	if len(clock.slept) != 1 || clock.slept[0] != 30*time.Second {
		t.Errorf("slept %v, want one 30s sleep", clock.slept)
	}
	if !clock.now.Equal(time.Unix(30, 0)) {
		t.Errorf("now = %v", clock.now)
	}
}

func TestWaitTurnPastSlotReturnsImmediately(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	s, _ := NewWithClock(0, 2, 60*time.Second, clock)
	clock.now = time.Unix(45, 0) // slot 0 of iteration 0 long gone
	s.WaitTurn(0)
	if len(clock.slept) != 0 {
		t.Errorf("should not sleep for a past slot, slept %v", clock.slept)
	}
}

func TestSlotsDoNotOverlap(t *testing.T) {
	// Across all indexes, slots within an iteration tile the interval.
	const total = 8
	interval := 80 * time.Second
	clock := &fakeClock{now: time.Unix(0, 0)}
	var starts []time.Time
	for idx := 0; idx < total; idx++ {
		s, err := NewWithClock(idx, total, interval, clock)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, s.SlotStart(5))
	}
	for i := 1; i < total; i++ {
		gap := starts[i].Sub(starts[i-1])
		if gap != 10*time.Second {
			t.Errorf("gap %d = %v, want 10s", i, gap)
		}
	}
}

func TestRealClockSmoke(t *testing.T) {
	s, err := New(0, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 of iteration 0 opens at epoch: returns immediately.
	done := make(chan struct{})
	go func() {
		s.WaitTurn(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitTurn hung on real clock")
	}
}

func TestBatchSlotWidth(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	s, err := NewWithClock(1, 4, 100*time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.BatchSlotWidth(3, 3); got != 25*time.Second {
		t.Errorf("single-iteration batch width = %v, want one slot", got)
	}
	if got := s.BatchSlotWidth(2, 5); got != 100*time.Second {
		t.Errorf("4-iteration batch width = %v, want 4 slots", got)
	}
	if got := s.BatchSlotWidth(5, 2); got != 25*time.Second {
		t.Errorf("inverted span width = %v, want the single-slot floor", got)
	}
}

func TestWaitTurnBatchTilesBatchSizedSlots(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	s, err := NewWithClock(2, 4, 100*time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Batch [1,3] (3 iterations): batch slots are 75s wide; core 2's opens
	// at the span start (iteration 1 = 100s) + 2*75s = 250s.
	s.WaitTurnBatch(1, 3)
	if len(clock.slept) != 1 || clock.slept[0] != 250*time.Second {
		t.Fatalf("slept %v, want one 250s wait", clock.slept)
	}
	// A batch slot already in the past returns immediately.
	clock.slept = nil
	s.WaitTurnBatch(0, 1)
	if len(clock.slept) != 0 {
		t.Fatalf("past batch slot slept %v", clock.slept)
	}
	// Inverted order normalizes to the same span.
	clock.now = time.Unix(0, 0)
	clock.slept = nil
	s.WaitTurnBatch(3, 1)
	if len(clock.slept) != 1 || clock.slept[0] != 250*time.Second {
		t.Fatalf("inverted span slept %v, want one 250s wait", clock.slept)
	}
	// A single-iteration batch is exactly WaitTurn: core 2's slot for
	// iteration 0 opens at 50s.
	clock.now = time.Unix(0, 0)
	clock.slept = nil
	s.WaitTurnBatch(0, 0)
	if len(clock.slept) != 1 || clock.slept[0] != 50*time.Second {
		t.Fatalf("single-iteration batch slept %v, want one 50s wait", clock.slept)
	}
	// Sibling cores' batch slots over the same span never overlap: core
	// i's slot is [100+i*75, 100+(i+1)*75).
	for i := 0; i < 4; i++ {
		si, err := NewWithClock(i, 4, 100*time.Second, &fakeClock{now: time.Unix(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Unix(0, 0).Add(100 * time.Second).Add(time.Duration(i) * si.BatchSlotWidth(1, 3))
		if want := time.Unix(int64(100+i*75), 0); !start.Equal(want) {
			t.Fatalf("core %d batch slot opens at %v, want %v", i, start, want)
		}
	}
}
