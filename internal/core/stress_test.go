package core

import (
	"fmt"
	"testing"

	"damaris/internal/config"
	"damaris/internal/layout"
	"damaris/internal/metadata"
	"damaris/internal/mpi"
)

// TestStressManyIterations pushes a multi-node deployment through many
// iterations with several variables per client, a deliberately tight buffer
// (forcing back-pressure), and both allocators — the sustained-production
// regime a month-long CM1 run would exercise.
func TestStressManyIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in short mode")
	}
	const (
		ranks        = 16
		coresPerNode = 8
		iters        = 40
		varsPerIter  = 3
	)
	for _, allocator := range []string{"mutex", "lockfree"} {
		allocator := allocator
		t.Run(allocator, func(t *testing.T) {
			// Per node: 7 clients x 3 variables x 4 KiB = 86 KiB per write
			// phase. The shared allocator needs >= 2 phases for liveness
			// (see Deploy's buffer-sizing note); 256 KiB gives ~3.
			cfgXML := fmt.Sprintf(`
<simulation>
  <buffer size="262144" allocator="%s" cores="1"/>
  <layout name="l" type="real" dimensions="32,32"/>
  <variable name="a" layout="l"/>
  <variable name="b" layout="l"/>
  <variable name="c" layout="l"/>
</simulation>`, allocator)
			cfg, err := config.ParseString(cfgXML)
			if err != nil {
				t.Fatal(err)
			}
			mem := &MemPersister{}
			err = mpi.Run(ranks, coresPerNode, func(comm *mpi.Comm) {
				dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
				if err != nil {
					t.Error(err)
					return
				}
				if !dep.IsClient() {
					if err := dep.Server.Run(); err != nil {
						t.Error(err)
					}
					if n := dep.Server.eventErrs; n > 0 {
						t.Errorf("server failed to handle %d events", n)
					}
					return
				}
				cli := dep.Client
				data := make([]float32, 32*32)
				for i := range data {
					data[i] = float32(comm.Rank())
				}
				for it := int64(0); it < iters; it++ {
					for _, name := range []string{"a", "b", "c"} {
						if err := cli.Write(name, it, mpi.Float32sToBytes(data)); err != nil {
							t.Errorf("write %s@%d: %v", name, it, err)
							return
						}
					}
					if err := cli.EndIteration(it); err != nil {
						t.Error(err)
						return
					}
				}
				_ = cli.Finalize()
			})
			if err != nil {
				t.Fatal(err)
			}
			clients := ranks - ranks/coresPerNode
			want := clients * varsPerIter * iters
			if mem.Len() != want {
				t.Errorf("persisted = %d, want %d", mem.Len(), want)
			}
			// Spot-check integrity on a late iteration.
			b, ok := mem.Get(metadata.Key{Name: "c", Iteration: iters - 1, Source: clients - 1})
			if !ok {
				t.Fatal("late dataset missing")
			}
			got := mpi.BytesToFloat32s(b)
			if got[17] != float32(clients-1) {
				t.Errorf("payload corrupted: %v", got[17])
			}
		})
	}
}

// TestStressConcurrentVariablesZeroCopy interleaves Alloc/Commit zero-copy
// writes with regular writes across iterations.
func TestStressConcurrentVariablesZeroCopy(t *testing.T) {
	cfg, err := config.ParseString(`
<simulation>
  <buffer size="1048576" cores="1"/>
  <layout name="l" type="real" dimensions="64"/>
  <variable name="copied" layout="l"/>
  <variable name="zerocopy" layout="l"/>
</simulation>`)
	if err != nil {
		t.Fatal(err)
	}
	mem := &MemPersister{}
	err = mpi.Run(4, 4, func(comm *mpi.Comm) {
		dep, err := Deploy(comm, cfg, nil, Options{Persister: mem})
		if err != nil {
			t.Error(err)
			return
		}
		if !dep.IsClient() {
			_ = dep.Server.Run()
			return
		}
		cli := dep.Client
		for it := int64(0); it < 25; it++ {
			data := make([]float32, 64)
			for i := range data {
				data[i] = float32(it)
			}
			if err := cli.Write("copied", it, mpi.Float32sToBytes(data)); err != nil {
				t.Error(err)
				return
			}
			buf, err := cli.Alloc("zerocopy", it, layout.Block{})
			if err != nil {
				t.Error(err)
				return
			}
			copy(buf, mpi.Float32sToBytes(data))
			if err := cli.Commit("zerocopy", it); err != nil {
				t.Error(err)
				return
			}
			if err := cli.EndIteration(it); err != nil {
				t.Error(err)
				return
			}
		}
		_ = cli.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 3*2*25 {
		t.Errorf("persisted = %d, want 150", mem.Len())
	}
	// Zero-copy and copied paths must deliver identical bytes.
	for it := int64(0); it < 25; it += 8 {
		a, _ := mem.Get(metadata.Key{Name: "copied", Iteration: it, Source: 0})
		z, _ := mem.Get(metadata.Key{Name: "zerocopy", Iteration: it, Source: 0})
		if string(a) != string(z) {
			t.Errorf("iteration %d: zero-copy bytes differ from copied", it)
		}
	}
}
