package aggregate

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"damaris/internal/dsf"
	"damaris/internal/metadata"
	"damaris/internal/store"
)

// storeEpochWriter commits each merged epoch through a real storage
// backend's object plane (stream, then atomic manifest commit) — the same
// protocol the production persister uses — so aggregation failure tests can
// exercise genuine backend faults instead of an in-memory stand-in.
type storeEpochWriter struct {
	backend store.Backend
}

func (w *storeEpochWriter) PersistAsWith(name string, entries []*metadata.Entry, attrs map[string]string) error {
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
	ow, err := w.backend.Create(name)
	if err != nil {
		return err
	}
	if _, err := ow.Write(buf.Bytes()); err != nil {
		ow.Abort()
		return err
	}
	_, err = ow.Commit()
	return err
}

// readObject reads one committed object's full byte stream back.
func readObject(t *testing.T, b store.Backend, name string) []byte {
	t.Helper()
	r, err := b.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer r.Close()
	out := make([]byte, r.Size())
	if _, err := r.ReadAt(out, 0); err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return out
}

// TestBrownoutCommitsExactlyOnce is the overload-resilience aggregation
// test: the backend is mid-brownout (injected latency plus a deterministic
// put error rate the store's retry loop must absorb) for every commit. Each
// epoch must commit exactly once, no contributor may be acked before the
// merged object is durable, and every committed object must be
// byte-identical to a fault-free run's.
func TestBrownoutCommitsExactlyOnce(t *testing.T) {
	const epochs = 4
	objName := func(e int64) string { return fmt.Sprintf("node0000_it%06d.dsf", e) }

	// Brownout at peak intensity for the whole test: start one second in the
	// past so the triangular ramp sits near its midpoint, with every second
	// blob put failing (the deterministic accumulator at rate 0.5) and a
	// small injected latency on top.
	brown, err := store.NewObjStore(t.TempDir(), store.Options{
		PutAttempts: 8,
		Fault: store.Brownout(time.Now().Add(-time.Second), 2*time.Second,
			2*time.Millisecond, 0.5, store.OpPut),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer brown.Close()
	sink := newGateSink(&StoreSink{
		Writer:     &storeEpochWriter{backend: brown},
		ObjectName: objName,
		MemberAttr: "servers",
		Mode:       "core",
	})
	agg, err := New(Config{Members: []int{0, 1}, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 0 flows ungated against the degraded backend: retries must
	// absorb the injected failures.
	a0 := agg.Submit(0, 0, memberEntries(0, 0))
	a1 := agg.Submit(1, 0, memberEntries(1, 0))
	if err := <-a0; err != nil {
		t.Fatal(err)
	}
	if err := <-a1; err != nil {
		t.Fatal(err)
	}

	// Epoch 1: gate its commit, mid-brownout, to make the no-early-ack
	// window observable.
	gate, entered := sink.gate(1)
	b0 := agg.Submit(0, 1, memberEntries(0, 1))
	b1 := agg.Submit(1, 1, memberEntries(1, 1))
	<-entered
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

	// The leader keeps draining later epochs while the brownout persists.
	for e := int64(2); e < epochs; e++ {
		c0 := agg.Submit(0, e, memberEntries(0, e))
		c1 := agg.Submit(1, e, memberEntries(1, e))
		if err := <-c0; err != nil {
			t.Fatal(err)
		}
		if err := <-c1; err != nil {
			t.Fatal(err)
		}
	}
	agg.MemberDone(0)
	agg.MemberDone(1)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	if st := agg.Stats(); st.Epochs != epochs {
		t.Errorf("Epochs = %d, want %d", st.Epochs, epochs)
	}
	for e := int64(0); e < epochs; e++ {
		if n := sink.commitCount(e); n != 1 {
			t.Errorf("epoch %d committed %d times, want exactly once", e, n)
		}
	}
	if bs := brown.Stats(); bs.Retries == 0 {
		t.Errorf("brownout never bit: store retries = %d, want > 0", bs.Retries)
	}

	// Every committed object must match a fault-free run's bytes.
	clean, err := store.NewObjStore(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ref, err := New(Config{
		Members: []int{0, 1},
		Sink: &StoreSink{
			Writer:     &storeEpochWriter{backend: clean},
			ObjectName: objName,
			MemberAttr: "servers",
			Mode:       "core",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < epochs; e++ {
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
	for e := int64(0); e < epochs; e++ {
		name := objName(e)
		got := readObject(t, brown, name)
		want := readObject(t, clean, name)
		if !bytes.Equal(got, want) {
			t.Errorf("object %s differs from fault-free reference (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}
}
