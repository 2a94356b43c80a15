//go:build goexperiment.synctest

package cm1

import (
	"errors"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"damaris/internal/mpi"
	"damaris/internal/store"
)

// A rank that fails before it builds its simulation ends the world with its
// own error, under every strategy: peers blocked in a halo exchange or a
// barrier that needs it unwind, and every Damaris client finalizes on its
// way out, so that its dedicated core returns. In a bubble a goroutine left
// blocked is a deadlock panic, not a hang. Run with
//
//	GOEXPERIMENT=synctest go test -run 'Fail|Abort' ./internal/cm1
//
// The failing rank first sleeps until every peer is blocked, and the queue
// is deeper than the run: a client still in core.Deploy's handshake, or
// waiting on the flow window for an iteration the dead client never ends,
// is blocked where the abort does not reach, and its dedicated core would
// wait for it forever.
func TestRunWorldFailsWithTheFailingRank(t *testing.T) {
	boom := errors.New("boom")
	newSim = func(comm *mpi.Comm, p Params) (*Sim, error) {
		if comm.Rank() == 1 {
			time.Sleep(time.Second)
			return nil, boom
		}
		return New(comm, p)
	}
	t.Cleanup(func() { newSim = New })
	for _, strategy := range Strategies {
		out, err := store.NewFileStore(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaults(t)
		cfg.BufferSize, cfg.PersistQueueDepth = 8<<20, 8
		synctest.Run(func() {
			// Compute rank 1 is world rank 1 under every strategy.
			_, err := RunWorld(WorldSpec{Strategy: strategy, Ranks: 8, CoresPerNode: 4,
				Steps: 4, OutputEvery: 1, Grid: smallParams, Config: cfg, Shared: out})
			if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mpi: rank 1: ") {
				t.Errorf("%s: RunWorld = %v, want rank 1's %v", strategy, err, boom)
			}
			out.Close() // in the bubble, after the world's last write
		})
	}
}
