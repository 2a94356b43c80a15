package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Blob-plane operation names, as seen by a Fault. OpPutRename fires between
// a blob's temp-file write and its rename into place: failing it simulates
// a crash mid-upload, leaving torn bytes in the backend's invisible temp
// area — exactly the window the manifest-last commit protocol defends.
const (
	OpPut       = "put"
	OpPutRename = "put.rename"
	OpGet       = "get"
	OpStat      = "stat"
	OpList      = "list"
	OpDelete    = "delete"
	OpCommit    = "commit"
	OpOpen      = "open"
)

// Fault intercepts backend operations for latency and failure injection.
// Op is consulted before (and, for OpPutRename, in the middle of) each
// operation; a non-nil return fails that attempt. Implementations must be
// safe for concurrent use — backends call them from many goroutines.
type Fault interface {
	Op(op, name string) error
}

// FaultFunc adapts a function to the Fault interface.
type FaultFunc func(op, name string) error

// Op implements Fault.
func (f FaultFunc) Op(op, name string) error { return f(op, name) }

// Latency injects a fixed sleep into every listed op (every op when none
// are listed) — the knob benchmarks use to emulate high-latency storage.
func Latency(d time.Duration, ops ...string) Fault {
	match := map[string]bool{}
	for _, op := range ops {
		match[op] = true
	}
	return FaultFunc(func(op, name string) error {
		if len(match) == 0 || match[op] {
			time.Sleep(d)
		}
		return nil
	})
}

// counterFault fails a deterministic window of matching calls.
type counterFault struct {
	op    string
	from  int64 // 1-based first matching call to fail
	to    int64 // last matching call to fail (inclusive)
	err   error
	calls atomic.Int64
}

func (c *counterFault) Op(op, name string) error {
	if op != c.op {
		return nil
	}
	n := c.calls.Add(1)
	if n >= c.from && n <= c.to {
		return c.err
	}
	return nil
}

// FailNth fails exactly the nth (1-based) call of the given op with err,
// passing every other call — the deterministic "kill this one upload"
// primitive crash tests are built on.
func FailNth(op string, nth int, err error) Fault {
	return &counterFault{op: op, from: int64(nth), to: int64(nth), err: err}
}

// FailTimes fails the first n calls of the given op with err, then passes —
// the shape transient storage errors take, for exercising retries.
func FailTimes(op string, n int, err error) Fault {
	return &counterFault{op: op, from: 1, to: int64(n), err: err}
}

// Chain composes faults: each is consulted in order, the first error wins
// (later faults still see the op, so latency+failure combinations behave).
func Chain(faults ...Fault) Fault {
	return FaultFunc(func(op, name string) error {
		var first error
		for _, f := range faults {
			if err := f.Op(op, name); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// ErrBrownout is the failure a Brownout fault injects; tests and retry
// loops can errors.Is against it.
var ErrBrownout = errors.New("store: injected brownout failure")

// brownout is a time-windowed degradation: inside [start, start+duration]
// matching ops see latency and failures whose intensity ramps linearly up to
// the configured peak at the window's midpoint and back down to zero — the
// shape of a storage target browning out under load and recovering, rather
// than a step function. Error injection is deterministic for a given call
// sequence: an accumulator fails a call each time the summed instantaneous
// error rate crosses one, so a 20%-peak brownout fails roughly every fifth
// matching call near the midpoint with no randomness involved.
type brownout struct {
	start    time.Time
	duration time.Duration
	latency  time.Duration
	errRate  float64
	match    map[string]bool  // nil or empty = every op
	now      func() time.Time // injectable for deterministic tests

	mu  sync.Mutex
	acc float64
}

// Brownout builds a time-windowed latency/error ramp over the listed ops
// (every op when none are listed). latency is the peak injected sleep and
// errRate the peak failure fraction, both reached at the midpoint of
// [start, start+duration]; outside the window the fault passes everything
// untouched. Failures carry ErrBrownout.
func Brownout(start time.Time, duration, latency time.Duration, errRate float64, ops ...string) Fault {
	b := &brownout{start: start, duration: duration, latency: latency, errRate: errRate, now: time.Now}
	if len(ops) > 0 {
		b.match = make(map[string]bool, len(ops))
		for _, op := range ops {
			b.match[op] = true
		}
	}
	return b
}

// factor is the ramp intensity in [0,1] at time t: 0 outside the window,
// rising linearly to 1 at the midpoint and back to 0 at the end.
func (b *brownout) factor(t time.Time) float64 {
	if b.duration <= 0 || t.Before(b.start) {
		return 0
	}
	frac := float64(t.Sub(b.start)) / float64(b.duration)
	if frac >= 1 {
		return 0
	}
	if frac < 0.5 {
		return 2 * frac
	}
	return 2 * (1 - frac)
}

func (b *brownout) Op(op, name string) error {
	if b.match != nil && !b.match[op] {
		return nil
	}
	f := b.factor(b.now())
	if f <= 0 {
		return nil
	}
	if b.latency > 0 {
		time.Sleep(time.Duration(f * float64(b.latency)))
	}
	if b.errRate <= 0 {
		return nil
	}
	b.mu.Lock()
	b.acc += f * b.errRate
	fail := b.acc >= 1
	if fail {
		b.acc -= 1
	}
	b.mu.Unlock()
	if fail {
		return ErrBrownout
	}
	return nil
}

// opFault is the backends' fault hook; a nil fault or an empty op ("not
// an operation a fault may fail") passes.
func opFault(f Fault, op, name string) error {
	if f == nil || op == "" {
		return nil
	}
	return f.Op(op, name)
}
