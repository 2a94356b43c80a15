package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// The brownout ramp must be zero outside its window and triangular inside:
// half intensity a quarter of the way in, peak at the midpoint, half again
// at three quarters.
func TestBrownoutFactorRamp(t *testing.T) {
	start := time.Unix(1000, 0)
	b := Brownout(start, 100*time.Second, time.Millisecond, 0.5).(*brownout)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 0},
		{0, 0},
		{25 * time.Second, 0.5},
		{50 * time.Second, 1},
		{75 * time.Second, 0.5},
		{100 * time.Second, 0},
		{200 * time.Second, 0},
	}
	for _, c := range cases {
		if got := b.factor(start.Add(c.at)); got != c.want {
			t.Errorf("factor at %v: got %v, want %v", c.at, got, c.want)
		}
	}
}

// At peak intensity with a 50% error rate, the deterministic accumulator
// must fail exactly every second call — evenly spaced, never back to back.
func TestBrownoutErrorsDeterministic(t *testing.T) {
	start := time.Unix(1000, 0)
	b := Brownout(start, 100*time.Second, 0, 0.5, OpPut).(*brownout)
	mid := start.Add(50 * time.Second)
	b.now = func() time.Time { return mid }

	var fails []int
	for i := 0; i < 10; i++ {
		if err := b.Op(OpPut, "x"); err != nil {
			if !errors.Is(err, ErrBrownout) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails = append(fails, i)
		}
	}
	if len(fails) != 5 {
		t.Fatalf("expected 5 failures out of 10 at 50%% peak, got %d (%v)", len(fails), fails)
	}
	for i := 1; i < len(fails); i++ {
		if fails[i]-fails[i-1] != 2 {
			t.Fatalf("failures not evenly spaced: %v", fails)
		}
	}
	// Ops outside the match set pass untouched.
	if err := b.Op(OpGet, "x"); err != nil {
		t.Fatalf("unmatched op failed: %v", err)
	}
}

// Retries after transient put failures must take counted backoff waits.
func TestUploadRetryBackoffCounted(t *testing.T) {
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:    64,
		PutAttempts: 5,
		Fault:       FailTimes(OpPut, 3, errors.New("transient")),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Retries != 3 {
		t.Errorf("retries = %d, want 3", st.Retries)
	}
	if st.Backoffs != 3 {
		t.Errorf("backoffs = %d, want 3", st.Backoffs)
	}
	if st.BackoffSeconds <= 0 {
		t.Errorf("backoff seconds = %v, want > 0", st.BackoffSeconds)
	}
}

// A URL says where the data lives and nothing else: the query spellings an
// older store took for hedge tuning are refused (TestOpenBadURLs holds the
// rest of the grammar).
func TestResilienceURLParams(t *testing.T) {
	for _, bad := range []string{"obj://data?hedge_ms=-5", "obj://data?hedge_pct=101"} {
		if err := ValidateURL(bad); err == nil {
			t.Errorf("ValidateURL(%q) passed, want error", bad)
		}
	}
}
