package aggregate

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"damaris/internal/metadata"
)

// gateSink wraps a StoreSink and blocks configured epochs' commits until
// released, signalling entry — the instrument the no-early-ack tests use to
// prove acks (and therefore client chunk releases) never precede
// durability.
type gateSink struct {
	inner   Sink
	mu      sync.Mutex
	gates   map[int64]chan struct{} // commit blocks on its epoch's gate
	entered map[int64]chan struct{} // closed when the commit is attempted
	commits map[int64]int
}

func newGateSink(inner Sink) *gateSink {
	return &gateSink{
		inner:   inner,
		gates:   make(map[int64]chan struct{}),
		entered: make(map[int64]chan struct{}),
		commits: make(map[int64]int),
	}
}

func (s *gateSink) gate(epoch int64) (gate, entered chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := make(chan struct{})
	e := make(chan struct{})
	s.gates[epoch] = g
	s.entered[epoch] = e
	return g, e
}

func (s *gateSink) CommitEpoch(epoch int64, members []int, entries []*metadata.Entry) error {
	s.mu.Lock()
	g := s.gates[epoch]
	e := s.entered[epoch]
	s.commits[epoch]++
	s.mu.Unlock()
	if e != nil {
		close(e)
		s.mu.Lock()
		s.entered[epoch] = nil
		s.mu.Unlock()
	}
	if g != nil {
		<-g
	}
	return s.inner.CommitEpoch(epoch, members, entries)
}

func (s *gateSink) Close() error { return s.inner.Close() }

func (s *gateSink) commitCount(epoch int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits[epoch]
}

// No contributor is acked (no client chunk released) while its epoch's
// merged commit is still in flight: the acks follow the commit, which
// happens exactly once per epoch, and the object is byte-identical to an
// ungated run's.
func TestNoEarlyAck(t *testing.T) {
	w := newMemEpochWriter()
	inner := &StoreSink{
		Writer:     w,
		ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) },
		MemberAttr: "servers",
		Mode:       "core",
	}
	sink := newGateSink(inner)
	agg, err := New(Config{Members: []int{0, 1}, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 0 flows through ungated.
	a0 := agg.Submit(0, 0, memberEntries(0, 0))
	a1 := agg.Submit(1, 0, memberEntries(1, 0))
	if err := <-a0; err != nil {
		t.Fatal(err)
	}
	if err := <-a1; err != nil {
		t.Fatal(err)
	}

	// Epoch 1: gate its commit so the no-early-ack window is observable.
	gate, entered := sink.gate(1)
	b0 := agg.Submit(0, 1, memberEntries(0, 1))
	b1 := agg.Submit(1, 1, memberEntries(1, 1))
	<-entered // the leader is now inside CommitEpoch(1)
	select {
	case err := <-b0:
		t.Fatalf("member 0 acked before the merged object was durable (err=%v)", err)
	case err := <-b1:
		t.Fatalf("member 1 acked before the merged object was durable (err=%v)", err)
	default:
	}
	close(gate)
	if err := <-b0; err != nil {
		t.Fatal(err)
	}
	if err := <-b1; err != nil {
		t.Fatal(err)
	}

	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	if st := agg.Stats(); st.Epochs != 2 {
		t.Errorf("Epochs = %d, want 2", st.Epochs)
	}
	for e := int64(0); e < 2; e++ {
		if n := sink.commitCount(e); n != 1 {
			t.Errorf("epoch %d committed %d times, want exactly once", e, n)
		}
	}

	// The gated object is byte-identical to an ungated run's.
	refW := newMemEpochWriter()
	ref, err := New(Config{
		Members: []int{0, 1},
		Sink: &StoreSink{Writer: refW,
			ObjectName: func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) },
			MemberAttr: "servers", Mode: "core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 2; e++ {
		c0 := ref.Submit(0, e, memberEntries(0, e))
		c1 := ref.Submit(1, e, memberEntries(1, e))
		if err := <-c0; err != nil {
			t.Fatal(err)
		}
		if err := <-c1; err != nil {
			t.Fatal(err)
		}
	}
	ref.MemberDone(0)
	ref.MemberDone(1)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := w.snapshot()
	want, _ := refW.snapshot()
	if len(got) != len(want) {
		t.Errorf("objects = %d, want %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("object %s differs from the ungated reference", name)
		}
	}
}
