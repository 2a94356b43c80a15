package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.At(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestEnginePanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Run()
	for _, fn := range []func(){
		func() { e.At(1, func() {}) }, // in the past
		func() { e.After(-1, func() {}) },
		func() { e.At(10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 4; i++ {
		r.Acquire(10, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40}
	if len(ends) != 4 {
		t.Fatalf("ends = %v", ends)
	}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Errorf("ends[%d] = %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		r.Acquire(10, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	sort.Float64s(ends)
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-9 {
			t.Errorf("ends = %v, want %v", ends, want)
			break
		}
	}
}

func TestResourceValidation(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero servers should panic")
			}
		}()
		NewResource(e, 0)
	}()
	r := NewResource(e, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative service should panic")
			}
		}()
		r.Acquire(-1, nil)
	}()
}

func TestLinkSingleTransfer(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 100) // 100 B/s
	var done Time
	l.Transfer(500, func() { done = e.Now() })
	e.Run()
	if math.Abs(done-5) > 1e-9 {
		t.Errorf("done at %v, want 5", done)
	}
}

func TestLinkFairSharing(t *testing.T) {
	// Two equal transfers starting together share bandwidth: both finish at
	// 2x the solo time.
	e := NewEngine()
	l := NewLink(e, 100)
	var ends []Time
	l.Transfer(500, func() { ends = append(ends, e.Now()) })
	l.Transfer(500, func() { ends = append(ends, e.Now()) })
	e.Run()
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	for _, end := range ends {
		if math.Abs(end-10) > 1e-6 {
			t.Errorf("end = %v, want 10", end)
		}
	}
}

func TestLinkLateArrivalSlowsFirst(t *testing.T) {
	// Transfer A (1000 B at 100 B/s) runs alone for 5 s (500 B left), then B
	// (250 B) arrives. They share 50/50: B finishes at 5+5=10, A at
	// 10 + 250/100 = 12.5.
	e := NewEngine()
	l := NewLink(e, 100)
	var aEnd, bEnd Time
	l.Transfer(1000, func() { aEnd = e.Now() })
	e.At(5, func() {
		l.Transfer(250, func() { bEnd = e.Now() })
	})
	e.Run()
	if math.Abs(bEnd-10) > 1e-6 {
		t.Errorf("B end = %v, want 10", bEnd)
	}
	if math.Abs(aEnd-12.5) > 1e-6 {
		t.Errorf("A end = %v, want 12.5", aEnd)
	}
}

func TestLinkEfficiencyDegradation(t *testing.T) {
	// With Efficiency(n) = 1/n (pathological seek storm), two transfers take
	// 4x solo time instead of 2x.
	e := NewEngine()
	l := NewLink(e, 100)
	l.Efficiency = func(n int) float64 { return 1 / float64(n) }
	var ends []Time
	l.Transfer(500, func() { ends = append(ends, e.Now()) })
	l.Transfer(500, func() { ends = append(ends, e.Now()) })
	e.Run()
	for _, end := range ends {
		if math.Abs(end-20) > 1e-6 {
			t.Errorf("end = %v, want 20", end)
		}
	}
}

func TestLinkZeroByteTransfer(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 100)
	fired := false
	l.Transfer(0, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("zero-byte transfer must complete")
	}
}

func TestLinkValidation(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth should panic")
		}
	}()
	NewLink(e, 0)
}

func TestLinkManyTransfersConservation(t *testing.T) {
	// Every transfer completes, and the makespan must be >= total/bandwidth
	// (work conservation bound).
	e := NewEngine()
	l := NewLink(e, 1000)
	total := 0.0
	n := 0
	for i := 1; i <= 20; i++ {
		sz := float64(i * 100)
		total += sz
		start := Time(i % 5)
		e.At(start, func() {
			l.Transfer(sz, func() { n++ })
		})
	}
	end := e.Run()
	if n != 20 {
		t.Fatalf("completed = %d", n)
	}
	if end < total/1000-1e-9 {
		t.Errorf("makespan %v violates work conservation bound %v", end, total/1000)
	}
}

// Property: with k equal transfers starting together on an ideal link, each
// finishes at k*size/bandwidth (processor sharing is exact).
func TestQuickLinkProcessorSharing(t *testing.T) {
	f := func(kRaw, szRaw uint8) bool {
		k := int(kRaw%6) + 1
		size := float64(szRaw%200) + 1
		e := NewEngine()
		l := NewLink(e, 50)
		ends := make([]Time, 0, k)
		for i := 0; i < k; i++ {
			l.Transfer(size, func() { ends = append(ends, e.Now()) })
		}
		e.Run()
		if len(ends) != k {
			return false
		}
		want := float64(k) * size / 50
		for _, end := range ends {
			if math.Abs(end-want) > 1e-6*want+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: event execution respects timestamps for arbitrary schedules.
func TestQuickEngineMonotoneTime(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		ok := true
		last := Time(-1)
		for _, d := range delays {
			at := Time(d % 50)
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
