package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// hang is a fault that blocks matching ops forever (until the test ends).
// Ops unparked by the test's end fail rather than proceed: a stray attempt
// that went on to write its blob would race the TempDir cleanup.
func hang(done <-chan struct{}, ops ...string) Fault {
	match := map[string]bool{}
	for _, op := range ops {
		match[op] = true
	}
	return FaultFunc(func(op, name string) error {
		if len(match) == 0 || match[op] {
			<-done
			return errors.New("hung target released at test end")
		}
		return nil
	})
}

// A hung target must convert to a retryable ErrPutTimeout at the per-put
// deadline instead of stalling the writer forever.
func TestPutTimeoutConvertsHangToError(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:   64,
		PutTimeout: 20 * time.Millisecond,
		Fault:      hang(done, OpPut),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = plantBlob(s, "cas/sha256/aa", []byte("payload"))
	if !errors.Is(err, ErrPutTimeout) {
		t.Fatalf("put against hung target: got %v, want ErrPutTimeout", err)
	}
	if s.Stats().PutTimeouts != 1 {
		t.Errorf("put timeouts = %d, want 1", s.Stats().PutTimeouts)
	}
}

// With the primary hung forever and a healthy replica, hedged puts must keep
// uploads (and the commit) completing, the hedge win must be counted, and
// the object must remain fully readable through replica fallback.
func TestHedgedPutWinsOverHungPrimary(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	primary := t.TempDir()
	replica := filepath.Join(t.TempDir(), "replica")
	s, err := NewObjStore(primary, Options{
		PartSize:   64,
		Replicas:   []string{replica},
		HedgeAfter: 10 * time.Millisecond,
		Fault:      hang(done, OpPut, OpPutRename, OpCommit),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("xyz"), 100)
	w, err := s.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatalf("commit with hung primary: %v", err)
	}
	st := s.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}

	// The object's parts live only on the replica; every read path must
	// still resolve it.
	r, err := s.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ from written payload")
	}
	objs, err := s.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Name != "obj" {
		t.Fatalf("objects listing = %v, want exactly [obj]", objs)
	}
	if _, err := s.StatObject("obj"); err != nil {
		t.Fatalf("stat object via replica: %v", err)
	}
}

// A losing hedge is abandoned, not interrupted: when the primary finally
// lands the parts and manifests it was held on, each must hold the bytes
// its name promises, not what the store put into a recycled buffer since,
// nor what the caller put into its buffer once Commit returned — a store
// that abandons uploads copies even the bytes handed to WritePinned.
func TestAbandonedHedgeLandsTheBytesItWasHanded(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		t.Run(map[bool]string{false: "Write", true: "WritePinned"}[pinned], func(t *testing.T) {
			abandonedHedge(t, pinned)
		})
	}
}

func abandonedHedge(t *testing.T, pinned bool) {
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	primary := t.TempDir()
	s, err := NewObjStore(primary, Options{
		PartSize:   64,
		PutWorkers: 1,
		Replicas:   []string{filepath.Join(t.TempDir(), "replica")},
		HedgeAfter: time.Millisecond,
		Fault: FaultFunc(func(op, name string) error {
			if op == OpPut || op == OpCommit {
				<-release // the replica wins; the primary lands later
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 640) // ten distinct parts per object, one buffer for both
	for i, name := range []string{"a.dsf", "b.dsf"} {
		copy(buf, pattern(640, byte(i)))
		w, err := s.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		write := w.Write
		if pinned {
			write = w.WritePinned
		}
		if _, err := write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	free()
	p := &s.targets[0]
	var blobs, manifests []ObjectInfo
	for deadline := time.Now().Add(10 * time.Second); len(blobs) < 20 || len(manifests) < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("primary landed %d blobs and %d manifests, want 20 and 2", len(blobs), len(manifests))
		}
		time.Sleep(5 * time.Millisecond)
		blobs, _ = list("", &p.blobs)
		manifests, _ = list("", &p.manifests)
	}
	for _, b := range blobs {
		data, err := os.ReadFile(p.blobs.path(b.Name))
		if sum := sha256.Sum256(data); err != nil || b.Name != casPart(sum, 0).Blob {
			t.Errorf("primary blob %s holds other bytes (%v)", b.Name, err)
		}
	}
	for _, m := range manifests {
		data, err := os.ReadFile(p.manifests.path(m.Name))
		if err == nil {
			_, err = decodeManifest(data, m.Name)
		}
		if err != nil {
			t.Errorf("primary manifest %s: %v", m.Name, err)
		}
	}
}

// A second writer of identical content must dedupe against a part that only
// exists on the replica — the Stat fallback is what makes hedged retries
// idempotent.
func TestDedupeProbesReplica(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	replica := t.TempDir()
	s, err := NewObjStore(t.TempDir(), Options{
		PartSize:   64,
		Replicas:   []string{replica},
		HedgeAfter: 5 * time.Millisecond,
		Fault:      hang(done, OpPut, OpPutRename),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("q"), 64)
	for i := 0; i < 2; i++ {
		w, err := s.Create(fmt.Sprintf("obj%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DedupeHits == 0 {
		t.Errorf("dedupe hits = 0, want > 0 (second writer should probe the replica)")
	}
}

// A URL carries the replica roots — deployment paths, repeated — and hands
// them to the backend after any the options already list; deadlines and
// hedge tuning are Options, so their old URL spellings are refused.
func TestResilienceURLParams(t *testing.T) {
	r1, r2 := t.TempDir(), t.TempDir()
	good := fmt.Sprintf("obj://%s?replica=%s&replica=%s", t.TempDir(), r1, r2)
	if err := ValidateURL(good); err != nil {
		t.Fatalf("ValidateURL(%q): %v", good, err)
	}
	b, err := OpenWith(good, Options{PutTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := b.(*ObjStore)
	if len(s.targets) != 3 || s.targets[1].blobs.dir.Name() != filepath.Join(r1, "blobs") || s.targets[2].blobs.dir.Name() != filepath.Join(r2, "blobs") {
		t.Errorf("targets = %+v, want the primary and both replica roots in order", s.targets)
	}
	for _, bad := range []string{
		"obj://data?put_timeout=-1",
		"obj://data?hedge_ms=-5",
		"obj://data?hedge_pct=101",
		"obj://data?put_timeout=zzz",
	} {
		if err := ValidateURL(bad); err == nil {
			t.Errorf("ValidateURL(%q) passed, want error", bad)
		}
	}
	// The same bounds hold where those values now arrive.
	for _, bad := range []Options{{PutTimeout: -1}, {HedgeAfter: -5 * time.Millisecond}, {HedgePct: 101}} {
		if _, err := NewObjStore(t.TempDir(), bad); err == nil {
			t.Errorf("NewObjStore(%+v) passed, want error", bad)
		}
	}
}
