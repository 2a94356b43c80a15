package mpi

import (
	"sync"
	"testing"
	"testing/quick"
)

// Property: Split partitions ranks into groups exactly matching the color
// assignment, ordered by key, for arbitrary color/key maps.
func TestQuickSplitPartition(t *testing.T) {
	f := func(colRaw []uint8) bool {
		if len(colRaw) == 0 || len(colRaw) > 12 {
			return true
		}
		p := len(colRaw)
		colors := make([]int, p)
		for i, c := range colRaw {
			colors[i] = int(c % 3) // 3 colors
		}
		type res struct{ color, subRank, subSize int }
		results := make([]res, p)
		var mu sync.Mutex
		err := Run(p, p, func(c *Comm) {
			sub := c.Split(colors[c.Rank()], -c.Rank()) // key reverses order
			mu.Lock()
			results[c.Rank()] = res{colors[c.Rank()], sub.Rank(), sub.Size()}
			mu.Unlock()
		})
		if err != nil {
			return false
		}
		// Group sizes must match color multiplicity, and within a group
		// ranks must be ordered by key (= reversed world rank).
		for color := 0; color < 3; color++ {
			var members []int
			for r := 0; r < p; r++ {
				if colors[r] == color {
					members = append(members, r)
				}
			}
			for i, r := range members {
				got := results[r]
				if got.subSize != len(members) {
					return false
				}
				// key = -rank: higher world rank gets lower sub rank.
				wantRank := len(members) - 1 - i
				if got.subRank != wantRank {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
