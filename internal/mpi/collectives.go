package mpi

import "fmt"

// Collective operations. All ranks of the communicator must call the same
// collective in the same order (the MPI contract); tags are derived from a
// rank-local sequence counter that advances in lockstep.

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a dissemination barrier: ⌈log2 p⌉ rounds of pairwise
// signalling, the textbook algorithm used by MPI libraries.
func (c *Comm) Barrier() {
	p := c.Size()
	seq := c.nextSeq()
	tag := c.internalTag(opBarrier, seq)
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		c.send(dst, tag, nil)
		c.recv(src, tag)
	}
}

// Gather collects one value from every rank at root. At root it returns a
// slice indexed by comm rank; other ranks receive nil.
func (c *Comm) Gather(root int, v any) []any {
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: Gather root %d outside communicator of size %d", root, p))
	}
	seq := c.nextSeq()
	tag := c.internalTag(opGather, seq)
	if c.rank != root {
		c.send(root, tag, v)
		return nil
	}
	out := make([]any, p)
	out[root] = v
	for r := 0; r < p; r++ {
		if r != root {
			out[r] = c.recv(r, tag)
		}
	}
	return out
}
