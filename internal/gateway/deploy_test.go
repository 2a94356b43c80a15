package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"damaris/internal/config"
	"damaris/internal/core"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

const deployXML = `
<simulation>
  <buffer size="1048576" allocator="mutex" cores="2"/>
  <layout name="field" type="real" dimensions="16,4"/>
  <variable name="temp" layout="field" unit="K"/>
</simulation>`

// runDeploy drives a full 2-node x 4-core deployment whose servers persist
// straight into the object store at root, every client writing globally
// placed blocks of "temp" for iters iterations.
func runDeploy(t *testing.T, root string, iters int64) {
	t.Helper()
	backend, err := store.Open("obj://" + root)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	cfg, err := config.ParseString(deployXML)
	if err != nil {
		t.Fatal(err)
	}
	persister := &core.DSFPersister{Backend: backend}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	err = mpi.Run(8, 4, func(comm *mpi.Comm) {
		dep, err := core.Deploy(comm, cfg, nil, core.Options{Persister: persister})
		if err != nil {
			fail(err)
			return
		}
		if dep.IsClient() {
			cli := dep.Client
			for it := int64(0); it < iters; it++ {
				xs := make([]float32, 64)
				for i := range xs {
					xs[i] = float32(comm.Rank()*1000 + int(it)*100 + i)
				}
				global := layout.Block{
					Start: []int64{int64(comm.Rank()) * 16, 0},
					Count: []int64{16, 4},
				}
				buf, err := cli.Alloc("temp", it, global)
				if err != nil {
					fail(err)
					return
				}
				copy(buf, mpi.Float32sToBytes(xs))
				if err := cli.Commit("temp", it); err != nil {
					fail(err)
					return
				}
				if err := cli.EndIteration(it); err != nil {
					fail(err)
					return
				}
			}
			if err := cli.Finalize(); err != nil {
				fail(err)
			}
			return
		}
		if err := dep.Server.Run(); err != nil {
			fail(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// Statelessness end to end: two independent gateways over the same obj://
// store return byte-identical chunk and assembled-field responses for every
// object a core.Deploy run produced.
func TestTwoReplicasServeDeployOutput(t *testing.T) {
	root := t.TempDir()
	runDeploy(t, root, 2)

	b, err := store.Open("obj://" + root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	objs, err := b.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) == 0 {
		t.Fatal("deploy run produced no objects")
	}

	urls := twoGateways(t, root)
	for _, o := range objs {
		it := objIteration(t, b, o.Name)
		for _, path := range []string{
			"/v1/object/" + o.Name,
			"/v1/chunk/" + o.Name + "?index=0",
			fmt.Sprintf("/v1/field/%s?var=temp&iteration=%d", o.Name, it),
			fmt.Sprintf("/v1/field/%s?var=temp&iteration=%d&format=raw", o.Name, it),
		} {
			code0, body0 := httpGet(t, urls[0]+path)
			code1, body1 := httpGet(t, urls[1]+path)
			if code0 != http.StatusOK || code1 != http.StatusOK {
				t.Fatalf("%s: status %d / %d (%s / %s)", path, code0, code1, body0, body1)
			}
			if !bytes.Equal(body0, body1) {
				t.Fatalf("%s: gateways disagree (%d vs %d bytes)", path, len(body0), len(body1))
			}
		}
	}

	// The union of iterations across objects must be what the run wrote.
	_, body := httpGet(t, urls[0]+"/v1/iterations")
	var its []int64
	if err := json.Unmarshal(body, &its); err != nil {
		t.Fatal(err)
	}
	if len(its) != 2 || its[0] != 0 || its[1] != 1 {
		t.Fatalf("iterations = %v, want [0 1]", its)
	}
}
