package cm1

import (
	"fmt"
	"time"

	"damaris/internal/core"
	"damaris/internal/dsf"
	"damaris/internal/layout"
	"damaris/internal/mpi"
	"damaris/internal/store"
)

// Backend is the pluggable I/O strategy of the mini-app. The paper compares
// three: file-per-process (HDF5), collective I/O (pHDF5), and Damaris.
// WritePhase is called with all ranks participating and returns only when
// the simulation may resume computing — so its duration is the
// client-visible I/O cost of the approach.
type Backend interface {
	// WritePhase outputs every variable for the iteration.
	WritePhase(s *Sim, iteration int64) error
	// Close flushes and releases the backend.
	Close() error
}

// statsEvent is the event every client raises at each output: its global
// action, the built-in "stats", adds each field's min/max/mean over the
// node's subdomains to the output (§III-C).
const statsEvent = "cm1_stats"

// ConfigXML generates the Damaris configuration for a run: one layout
// matching the local subdomain, one variable per output field and the
// statsEvent, matching the paper's XML schema.
func ConfigXML(p Params, bufferBytes int64, allocator string, dedicatedCores int) string {
	xml := fmt.Sprintf("<simulation>\n  <buffer size=%q allocator=%q cores=%q/>\n"+
		"  <layout name=\"subdomain\" type=\"real\" dimensions=\"%d,%d,%d\"/>\n",
		fmt.Sprint(bufferBytes), allocator, fmt.Sprint(dedicatedCores),
		p.NZ, p.LocalNY(), p.LocalNX())
	for _, v := range VariableNames {
		xml += fmt.Sprintf("  <variable name=%q layout=\"subdomain\"/>\n", v)
	}
	xml += fmt.Sprintf("  <event name=%q action=\"stats\" scope=\"global\"/>\n", statsEvent)
	xml += "</simulation>\n"
	return xml
}

// DamarisBackend hands fields to the node's dedicated core through shared
// memory: each field is gathered in one pass straight into its block of the
// segment, so the simulation's own gather is the write phase's only copy.
type DamarisBackend struct {
	cli     *core.Client
	blocked int // write phases in which the client waited (Client.Waits)
}

// NewDamarisBackend wraps a deployed Damaris client.
func NewDamarisBackend(cli *core.Client) *DamarisBackend {
	return &DamarisBackend{cli: cli}
}

// WritePhase implements Backend: every variable written in place, the
// statsEvent signal, and the end-of-iteration notification. No
// synchronization with other ranks. A phase in which the client waited, on
// the flow window or for buffer space, counts as blocked.
func (b *DamarisBackend) WritePhase(s *Sim, iteration int64) error {
	flow, buffer := b.cli.Waits()
	defer func() {
		if f, bu := b.cli.Waits(); f+bu > flow+buffer {
			b.blocked++
		}
	}()
	if err := b.writeFields(s, iteration); err != nil {
		return err
	}
	if err := b.cli.Signal(statsEvent, iteration); err != nil {
		return err
	}
	return b.cli.EndIteration(iteration)
}

// writeFields gathers each variable into the shared-memory block Alloc
// reserves for it (the paper's dc_alloc) and commits it.
func (b *DamarisBackend) writeFields(s *Sim, iteration int64) error {
	for _, name := range VariableNames {
		dst, err := b.cli.Alloc(name, iteration, s.GlobalBlock())
		if err != nil {
			return err
		}
		if err := s.FieldInto(name, dst); err != nil {
			return err
		}
		if err := b.cli.Commit(name, iteration); err != nil {
			return err
		}
	}
	return nil
}

// Close finalizes the Damaris client.
func (b *DamarisBackend) Close() error { return b.cli.Finalize() }

// writeObject streams one DSF object named name into out and publishes it
// as Damaris's persister does: Create, the chunks write puts in the stream,
// Close, then Commit — the fsync and atomic rename a file backend pays.
// On any error the object is aborted and never becomes visible.
func writeObject(out store.Backend, name string, write func(*dsf.Writer) error) error {
	ow, err := out.Create(name)
	if err != nil {
		return err
	}
	defer ow.Abort() // does nothing once committed
	w, err := dsf.NewWriter(ow)
	if err != nil {
		return err
	}
	defer w.Abort() // does nothing once closed
	if err := write(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	_, err = ow.Commit()
	return err
}

// FPPBackend is the file-per-process approach: every rank synchronously
// writes and commits its own DSF object each output phase, through the same
// store.Backend protocol as Damaris's dedicated core. Compression may be
// enabled, as the paper notes is possible with per-process HDF5.
type FPPBackend struct {
	Codec dsf.Codec
	out   store.Backend
	rank  int
	buf   []byte // every variable's bytes, gathered into each phase
}

// NewFPPBackend creates a file-per-process writer whose objects go to out.
func NewFPPBackend(out store.Backend, codec dsf.Codec, rank int) *FPPBackend {
	return &FPPBackend{Codec: codec, out: out, rank: rank}
}

// WritePhase implements Backend: create, write all variables, commit — on
// the simulation's critical path.
func (b *FPPBackend) WritePhase(s *Sim, iteration int64) error {
	global := s.GlobalBlock()
	lay, err := layout.New(layout.Float32, global.Count...)
	if err != nil {
		return err
	}
	// One slice per variable: a backend may keep a raw chunk's bytes until
	// Commit (store.ObjectWriter.WritePinned), so none is reused mid-object.
	n := lay.Bytes()
	if int64(len(b.buf)) != n*int64(len(VariableNames)) {
		b.buf = make([]byte, n*int64(len(VariableNames)))
	}
	name := fmt.Sprintf("rank%05d_it%06d.dsf", b.rank, iteration)
	return writeObject(b.out, name, func(w *dsf.Writer) error {
		for i, v := range VariableNames {
			data := b.buf[int64(i)*n : int64(i+1)*n]
			if err := s.FieldInto(v, data); err != nil {
				return err
			}
			meta := dsf.ChunkMeta{
				Name: v, Iteration: iteration, Source: b.rank,
				Layout: lay, Global: global, Codec: b.Codec,
			}
			if err := w.WriteChunk(meta, data); err != nil {
				return err
			}
		}
		return nil
	})
}

// Close implements Backend.
func (b *FPPBackend) Close() error { return nil }

// CollectiveBackend models collective I/O (pHDF5 over MPI-IO): all ranks
// synchronize, data funnels to aggregators (one per node, ROMIO-style
// two-phase I/O), and the aggregators write and commit one object of a
// logically shared file per iteration, through the same store.Backend
// protocol as Damaris's dedicated core. The post-write barrier mirrors the
// collective close: nobody resumes computing until the file is complete.
type CollectiveBackend struct {
	out  store.Backend
	comm *mpi.Comm
	agg  *mpi.Comm // aggregator subcommunicator (one rank per node), nil on others
	node *mpi.Comm
	buf  []byte // every variable's bytes, gathered into each phase
}

// NewCollectiveBackend prepares the aggregation topology; the aggregators'
// objects go to out. Must be called by every rank of comm.
func NewCollectiveBackend(out store.Backend, comm *mpi.Comm) *CollectiveBackend {
	node := comm.SplitByNode()
	color := -1
	if node.Rank() == 0 {
		color = 0
	}
	agg := comm.Split(color, comm.Rank())
	return &CollectiveBackend{out: out, comm: comm, agg: agg, node: node}
}

// WritePhase implements Backend.
func (b *CollectiveBackend) WritePhase(s *Sim, iteration int64) error {
	// Collective open: every rank synchronizes.
	b.comm.Barrier()

	global := s.GlobalBlock()
	lay, err := layout.New(layout.Float32, global.Count...)
	if err != nil {
		return err
	}

	// Phase one: gather every rank's variables at the node aggregator. The
	// aggregator reads this rank's b.buf until its Commit returns; the
	// collective close below orders that before the next phase refills it.
	type piece struct {
		meta dsf.ChunkMeta
		data []byte
	}
	n := lay.Bytes()
	if int64(len(b.buf)) != n*int64(len(VariableNames)) {
		b.buf = make([]byte, n*int64(len(VariableNames)))
	}
	mine := make([]piece, len(VariableNames))
	for i, name := range VariableNames {
		data := b.buf[int64(i)*n : int64(i+1)*n]
		if err := s.FieldInto(name, data); err != nil {
			return err
		}
		mine[i] = piece{dsf.ChunkMeta{Name: name, Iteration: iteration, Source: s.comm.Rank(),
			Layout: lay, Global: global}, data}
	}
	gathered := b.node.Gather(0, mine)

	// Phase two: aggregators write the shared file (one per iteration; the
	// file is logically shared, physically region-partitioned by node, like
	// a striped pHDF5 file).
	var werr error
	if b.node.Rank() == 0 {
		name := fmt.Sprintf("shared_it%06d_part%04d.dsf", iteration, b.agg.Rank())
		werr = writeObject(b.out, name, func(w *dsf.Writer) error {
			for _, raw := range gathered {
				for _, pc := range raw.([]piece) {
					if err := w.WriteChunk(pc.meta, pc.data); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	// Collective close: every rank waits for the slowest writer.
	b.comm.Barrier()
	return werr
}

// Close implements Backend.
func (b *CollectiveBackend) Close() error { return nil }

// Run advances the simulation `steps` timesteps, performing an output phase
// through the backend after every `outputEvery`-th step (none when
// outputEvery <= 0; steps after the last multiple are not output). A
// non-nil afterStep runs after each step, as the rest of its compute phase.
// It returns how long each of this rank's write phases took.
func Run(s *Sim, backend Backend, steps, outputEvery int, afterStep func()) ([]time.Duration, error) {
	var writes []time.Duration
	if outputEvery <= 0 {
		outputEvery = steps + 1
	}
	iteration := int64(0)
	for step := 1; step <= steps; step++ {
		s.Step()
		if afterStep != nil {
			afterStep()
		}
		if step%outputEvery == 0 {
			t0 := time.Now()
			if err := backend.WritePhase(s, iteration); err != nil {
				return writes, fmt.Errorf("cm1: write phase %d: %w", iteration, err)
			}
			writes = append(writes, time.Since(t0))
			iteration++
		}
	}
	return writes, nil
}
