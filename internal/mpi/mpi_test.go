package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, 1); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := NewWorld(4, 0); err == nil {
		t.Error("coresPerNode 0 should fail")
	}
	if _, err := NewWorld(10, 4); err == nil {
		t.Error("non-multiple should fail")
	}
	w, err := NewWorld(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 24 || w.coresPerNode != 12 {
		t.Errorf("topology: %d/%d", w.Size(), w.coresPerNode)
	}
	if w.NodeOf(0) != 0 || w.NodeOf(11) != 0 || w.NodeOf(12) != 1 {
		t.Error("NodeOf mapping wrong")
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	err := Run(16, 4, func(c *Comm) {
		count.Add(1)
		if c.Size() != 16 {
			t.Errorf("size = %d", c.Size())
		}
		if c.WorldRank() != c.Rank() {
			t.Errorf("world comm ranks should match")
		}
		if c.Node() != c.Rank()/4 {
			t.Errorf("node = %d for rank %d", c.Node(), c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 16 {
		t.Errorf("ran %d ranks, want 16", count.Load())
	}
}

func TestRunCapturesPanic(t *testing.T) {
	err := Run(2, 1, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	err := Run(2, 1, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 7, i)
			}
		} else {
			for i := 0; i < n; i++ {
				got := c.Recv(0, 7).(int)
				if got != i {
					t.Errorf("message %d arrived as %d (ordering violated)", i, got)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsSeparateStreams(t *testing.T) {
	err := Run(2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, "a")
			c.Send(1, 2, "b")
		} else {
			// Receive in reverse tag order: must match by tag, not arrival.
			if got := c.Recv(0, 2).(string); got != "b" {
				t.Errorf("tag 2 = %q", got)
			}
			if got := c.Recv(0, 1).(string); got != "a" {
				t.Errorf("tag 1 = %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	// After a barrier, every rank must observe every pre-barrier increment.
	var before atomic.Int64
	err := Run(8, 4, func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if got := before.Load(); got != 8 {
			t.Errorf("rank %d saw %d pre-barrier increments", c.Rank(), got)
		}
		c.Barrier() // a second barrier must also work (sequence numbers)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(5, 5, func(c *Comm) {
		got := c.Gather(2, c.Rank()*10)
		if c.Rank() == 2 {
			for r := 0; r < 5; r++ {
				if got[r].(int) != r*10 {
					t.Errorf("gather[%d] = %v", r, got[r])
				}
			}
		} else if got != nil {
			t.Errorf("non-root gather should be nil")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	err := Run(8, 4, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub == nil {
			t.Error("expected a subcommunicator")
			return
		}
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if sub.WorldRank() != c.Rank() {
			t.Errorf("world rank = %d, want %d", sub.WorldRank(), c.Rank())
		}
		// Comm rank should order by key = old rank.
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("sub rank = %d for world %d", sub.Rank(), c.Rank())
		}
		// Collectives must work within the split comm.
		got := sub.Gather(0, c.Rank())
		if sub.Rank() == 0 && (len(got) != 4 || got[3].(int) != c.Rank()+6) {
			t.Errorf("sub gather = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	err := Run(4, 2, func(c *Comm) {
		color := -1
		if c.Rank() == 0 {
			color = 0
		}
		sub := c.Split(color, 0)
		if c.Rank() == 0 {
			if sub == nil || sub.Size() != 1 {
				t.Error("rank 0 should get singleton comm")
			}
		} else if sub != nil {
			t.Errorf("rank %d should get nil comm", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByNode(t *testing.T) {
	err := Run(12, 4, func(c *Comm) {
		node := c.SplitByNode()
		if node.Size() != 4 {
			t.Errorf("node comm size = %d", node.Size())
		}
		if node.Rank() != c.Rank()%4 {
			t.Errorf("node rank = %d for world %d", node.Rank(), c.Rank())
		}
		// All members must agree on the node index.
		for r, idx := range node.Gather(0, c.Node()) {
			if idx.(int) != c.Node() {
				t.Errorf("node %d member %d reports node %v", c.Node(), r, idx)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplitCollectivesDoNotCollide(t *testing.T) {
	// Simultaneous collectives on world and node comms must not interfere.
	err := Run(8, 4, func(c *Comm) {
		node := c.SplitByNode()
		for i := 0; i < 10; i++ {
			nodeGot := node.Gather(0, i)
			worldGot := c.Gather(0, i)
			if node.Rank() == 0 && len(nodeGot) != 4 || c.Rank() == 0 && len(worldGot) != 8 {
				t.Errorf("iter %d: node gather %v, world gather %v", i, nodeGot, worldGot)
				return
			}
			for _, v := range append(nodeGot, worldGot...) {
				if v.(int) != i {
					t.Errorf("iter %d: gathered %v from another round", i, v)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConversionRoundTrips(t *testing.T) {
	f32 := []float32{1.5, -2.25, 3e7, 0}
	got32 := BytesToFloat32s(Float32sToBytes(f32))
	for i := range f32 {
		if got32[i] != f32[i] {
			t.Errorf("f32[%d] = %v, want %v", i, got32[i], f32[i])
		}
	}
	f64 := []float64{1.5, -2.25, 3e300, 0}
	var b []byte
	for _, x := range f64 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	got64 := BytesToFloat64s(b)
	for i := range f64 {
		if got64[i] != f64[i] {
			t.Errorf("f64[%d] = %v", i, got64[i])
		}
	}
}

func TestUserTagValidation(t *testing.T) {
	err := Run(1, 1, func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range tag")
			}
		}()
		c.Send(0, maxUserTag, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	_ = Run(2, 2, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, payload)
			}
		}
	})
}

func BenchmarkBarrier64(b *testing.B) {
	_ = Run(64, 8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
}

func TestWorldRankOf(t *testing.T) {
	err := Run(6, 3, func(c *Comm) {
		node := c.SplitByNode()
		for r := 0; r < node.Size(); r++ {
			want := c.Node()*3 + r
			if got := node.WorldRankOf(r); got != want {
				t.Errorf("node %d rank %d: WorldRankOf = %d, want %d", c.Node(), r, got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An abort races the messages in flight: the ring keeps passing tokens while
// rank 0 aborts mid-stream, and Run returns rank 0's error once every rank
// has unwound, wherever its receive was.
func TestAbortRacesMessages(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, 2, func(c *Comm) {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		for i := 0; ; i++ {
			if c.Rank() == 0 && i == 50 {
				c.Abort(boom)
			}
			c.Send(next, 1, i)
			c.Recv(prev, 1)
		}
	})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mpi: rank 0: ") {
		t.Fatalf("Run = %v, want rank 0's %v", err, boom)
	}
}
