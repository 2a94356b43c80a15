package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Stddev != 0 {
		t.Fatalf("single summary wrong: %+v", s)
	}
	if s.Median != 42 || s.P95 != 42 {
		t.Fatalf("percentiles of single sample wrong: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if s.Stddev != 2 {
		t.Errorf("stddev = %v, want 2", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if s.Spread() != 7 {
		t.Errorf("spread = %v, want 7", s.Spread())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {150, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty input")
		}
	}()
	Percentile(nil, 50)
}

func TestMeanMinMaxHelpers(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m := Summarize(xs).Mean; m != 2.75 {
		t.Errorf("Mean = %v", m)
	}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Summarize(nil).Mean != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		a := float64(p1 % 101)
		b := float64(p2 % 101)
		if a > b {
			a, b = b, a
		}
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		pa := Percentile(sorted, a)
		pb := Percentile(sorted, b)
		return pa <= pb && pa >= s.Min && pb <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}

// WorkerSet: one busy-seconds slot per worker, utilization against the whole
// set running for the wall interval, and a zero set that reads zero.
func TestWorkerSetSlotsAndUtilization(t *testing.T) {
	ws := NewWorkerSet(3)
	if ws.Workers() != 3 || len(ws.Busy()) != 3 {
		t.Fatalf("workers=%d busy slots=%d, want 3 and 3", ws.Workers(), len(ws.Busy()))
	}
	for slot := 0; slot < 3; slot++ {
		ws.AddBusy(slot, 2.5)
		ws.AddBusy(slot, 7.5) // 3 slots x 10s = workers(3) x wall(10)
	}
	if u := ws.Utilization(10); !almostEqual(u, 1, 1e-12) {
		t.Fatalf("utilization = %v, want 1 for a set busy the whole interval", u)
	}
	if u := ws.Utilization(40); !almostEqual(u, 0.25, 1e-12) {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	if u := ws.Utilization(0); u != 0 {
		t.Fatalf("zero wall utilization = %v", u)
	}
	busy := ws.Busy()
	busy[0] = 99
	if got := ws.Busy()[0]; got != 10 {
		t.Fatalf("Busy returned the live slice: slot 0 reads %v after the caller wrote its copy", got)
	}
	var none WorkerSet // the zero value: no slots
	if none.Workers() != 0 || none.Utilization(10) != 0 || none.Busy() != nil {
		t.Fatalf("zero WorkerSet: workers=%d utilization=%v busy=%v", none.Workers(), none.Utilization(10), none.Busy())
	}
}
