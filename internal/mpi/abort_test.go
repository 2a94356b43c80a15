//go:build goexperiment.synctest

package mpi

import (
	"errors"
	"strings"
	"testing"
	"testing/synctest"
	"time"
)

// The world's failure tests run in synctest bubbles: a rank left blocked
// after Run returns is a deadlock panic there, not a hang, and the waits
// cost no wall time. Run with
//
//	GOEXPERIMENT=synctest go test -run 'Fail|Abort' ./internal/mpi

// A rank that panics before a barrier its peers are in fails the world with
// its own error instead of leaving them waiting.
func TestRunFailsWithThePanickingRank(t *testing.T) {
	synctest.Run(func() {
		err := Run(4, 2, func(c *Comm) {
			if c.Rank() == 0 {
				panic("no barrier for rank 0")
			}
			c.Barrier()
		})
		if err == nil || err.Error() != "mpi: rank 0 panicked: no barrier for rank 0" {
			t.Errorf("Run = %v, want rank 0's panic", err)
		}
	})
}

// Ranks already blocked when a peer aborts unwind through their deferred
// calls: one in a Recv from the dead rank, one in a Gather it roots, one in
// a Barrier. None returns from its call.
func TestAbortUnwindsBlockedRanks(t *testing.T) {
	boom := errors.New("boom")
	synctest.Run(func() {
		var unwound, returned [4]bool
		err := Run(4, 2, func(c *Comm) {
			defer func() { unwound[c.Rank()] = true }()
			switch c.Rank() {
			case 0:
				time.Sleep(time.Second) // until every peer is blocked
				c.Abort(boom)
			case 1:
				c.Recv(0, 7)
			case 2:
				c.Gather(3, 2)
				c.Barrier()
			case 3:
				c.Gather(3, 3)
			}
			returned[c.Rank()] = true
		})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mpi: rank 0: ") {
			t.Errorf("Run = %v, want rank 0's %v", err, boom)
		}
		if unwound != [4]bool{true, true, true, true} || returned != [4]bool{} {
			t.Errorf("ranks unwound %v, returned past their blocking call %v", unwound, returned)
		}
	})
}
