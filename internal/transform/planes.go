package transform

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
)

// After the byte shuffle a float field is elemSize very different streams:
// the sign/exponent and high-mantissa planes are long runs, the low-mantissa
// plane is close to noise. compress/flate at the default level spends the
// same ~15 ns/B on all of them — its hash chains are at their worst on long
// runs, and on noise it searches every position only to emit stored blocks.
// ShuffleGzipTo therefore deflates every plane on its own, as one gzip member
// each, and decides per plane whether the configured level is worth running,
// or level 1, or this package's one-pass encoder (lz.go).
// A gzip stream is a sequence of members and compress/gzip's reader
// concatenates them, so the result decodes exactly like the single-member
// stream CompressGzipTo(ShuffleTo(b)) does: the format does not change, only
// where the deflate effort goes.

// PlaneMode names what ShuffleGzipTo did with one byte plane.
type PlaneMode int

const (
	// PlaneStored: the plane is noise to level 1 and to the configured level
	// alike; the member is level 1's stored blocks.
	PlaneStored PlaneMode = iota
	// PlaneFast: the plane is runs, which level 1 packs as well as the
	// configured level would; the member is level 1's.
	PlaneFast
	// PlaneLevel: the member is the plane deflated at the configured level.
	PlaneLevel
	// PlaneLZ: the plane is noise to level 1 but holds four-byte repeats,
	// and the member is planeLZ's, which takes every match its hash table
	// finds in the window.
	PlaneLZ
	numPlaneModes
)

func (m PlaneMode) String() string {
	switch m {
	case PlaneStored:
		return "stored"
	case PlaneFast:
		return "fast"
	case PlaneLevel:
		return "level"
	case PlaneLZ:
		return "lz"
	}
	return fmt.Sprintf("PlaneMode(%d)", int(m))
}

// PlaneCounts counts encoded planes by PlaneMode.
type PlaneCounts [numPlaneModes]int64

// Add accumulates o into c.
func (c *PlaneCounts) Add(o PlaneCounts) {
	for m := range c {
		c[m] += o[m]
	}
}

const (
	// fastLevel is the cheap pass: compress/flate's level-1 matcher packs
	// long runs as well as the hash chains do and gives up on noise at memcpy
	// speed, at ~1 ns/B either way. On anything in between it costs 5-8 ns/B,
	// most of what the default level costs there, so it only ever runs over a
	// whole plane after a sample has said it will be the last pass.
	fastLevel = gzip.BestSpeed
	// worthShift is the price of a pass: the configured level runs over a
	// whole plane when, on a sample, it saves at least 1/256 of the sample
	// beyond what level 1 saves, and planeLZ's member is kept when it is
	// 1/256 of the plane shorter than the plane. Deflate time is proportional
	// to the plane, so this is a price per byte saved, and it caps what all
	// shortcuts together can add to a chunk at 1/256 of its raw size.
	// Run-dominated planes sit at 0-1/500, planes with structure only the
	// hash chains find at 1/100 and more.
	//
	// Level 1's own result cannot stand in for that comparison, either way.
	// A flat histogram is not noise: the low mantissa byte of a smooth
	// noise-free field has 7.997 bits of order-0 entropy and defeats level 1,
	// yet the default level takes 3-12 % off it. And a small level-1 output
	// is not a good one: on the CM1 mini-app's fields level 1 packs the high
	// mantissa plane to 1/37 of its size and the default level to half of
	// that again.
	worthShift = 8
	// noiseSample is the mid-plane sample that classifies a plane, and the
	// length of the head searched for a four-byte repeat when level 1 could
	// only store that sample. It cannot be shorter: what the default level
	// finds in that smooth field's low plane are near-repeats one sine
	// period (3.7 KiB) and more apart, 0.2 % of an 8 KiB sample, 1 % of a
	// 16 KiB one, 3 % of the plane. Planes no longer than this take no
	// shortcut.
	noiseSample = 16 << 10
	// runSample is the sample on which the two levels are compared once
	// level 1 has made the plane small. What the hash chains find there and
	// level 1 does not is local (rows repeating a few hundred bytes apart),
	// and runs are where they are slowest (17 ns/B), so it is half as long.
	runSample = 8 << 10
	// runShift: level 1 leaving at most 1/16 (of the sample, then of the
	// plane) is what makes a plane a candidate for keeping its output.
	// Between that and "stored" the configured level all but always repays.
	runShift = 4
	// repeatsBits sizes repeats4's table: 16 K slots for a 16 KiB head.
	repeatsBits = 14
)

// ShuffleGzipTo byte-shuffles b by elemSize into e's scratch and encodes each
// of the elemSize byte planes as its own gzip member, on e's writers, into
// dst's backing array (truncated, grown as needed), returning the encoded
// bytes and what was decided for each plane. A nil e borrows an Encoder for
// the call. DecompressGzipTo followed by UnshuffleTo reverses it.
//
// Levels gzip.HuffmanOnly, gzip.NoCompression and gzip.BestSpeed have nothing
// cheaper to fall back on, and planes of at most 16 KiB are too short to
// sample: those are encoded at the configured level (PlaneLevel). Any other
// plane is classified by what level 1 makes of a 16 KiB mid-plane sample,
// and a shortcut is taken when the configured level would not save 1/256 of
// the plane beyond level 1:
//
//   - level 1 only stores the sample, and the plane's first 16 KiB hold a
//     four-byte sequence twice: the plane is deflated by planeLZ, and its
//     member is kept if it is 1/256 of the plane shorter than the plane
//     (PlaneLZ). The configured level, whatever it is, is not run: planeLZ
//     takes the four-byte matches compress/flate turns down, and its member
//     is the shorter one;
//   - level 1 only stores the sample, the head holds no four-byte repeat or
//     planeLZ's member was not kept, and level 1 then only stores the whole
//     plane too: the plane is noise to both matchers, its member is level
//     1's stored blocks (PlaneStored);
//   - level 1 leaves at most 1/16 of the sample and then of the whole plane,
//     and either that is at most 1/256 of the plane or, on an 8 KiB
//     mid-plane sample, the configured level's member is not 1/256 of the
//     sample smaller than level 1's: the plane is runs, which both matchers
//     pack alike, its member is level 1's (PlaneFast);
//   - otherwise the plane is deflated at the configured level (PlaneLevel).
//
// Every decision is a pure function of the plane's bytes and the level, so
// the output is reproducible across goroutines, pools and runs.
func (e *Encoder) ShuffleGzipTo(dst, b []byte, elemSize, level int) ([]byte, PlaneCounts, error) {
	var counts PlaneCounts
	if !ValidGzipLevel(level) {
		return nil, counts, fmt.Errorf("transform: gzip: invalid compression level: %d", level)
	}
	if e == nil {
		e = encoderPool.Get().(*Encoder)
		defer releaseEncoder(e)
	}
	shuffled, err := ShuffleTo(e.shuffled, b, elemSize)
	if err != nil {
		return nil, counts, err
	}
	e.shuffled = shuffled

	out := dst[:0]
	n := len(b) / elemSize
	for j := 0; j < elemSize; j++ {
		var mode PlaneMode
		out, mode, err = e.appendPlane(out, shuffled[j*n:(j+1)*n], level)
		if err != nil {
			return nil, counts, err
		}
		counts[mode]++
	}
	return out, counts, nil
}

// appendPlane appends one plane to dst as one gzip member.
func (e *Encoder) appendPlane(dst, plane []byte, level int) ([]byte, PlaneMode, error) {
	if level != gzip.HuffmanOnly && level != gzip.NoCompression && level != fastLevel && len(plane) > noiseSample {
		out, mode, err := e.appendSampled(dst, plane, level)
		if err != nil || len(out) > len(dst) {
			return out, mode, err
		}
		dst = out
	}
	out, err := e.appendGzipMember(dst, plane, level)
	return out, PlaneLevel, err
}

// appendSampled appends plane's member to dst if the sampling rule settles
// whose it is, and says as what. If it returns dst no longer than it came
// (possibly with a grown array, scratch behind its length), the plane is
// still to be deflated at level.
func (e *Encoder) appendSampled(dst, plane []byte, level int) ([]byte, PlaneMode, error) {
	sample := midSample(plane, noiseSample)
	fst, dst, err := e.memberLen(dst, sample, fastLevel)
	if err != nil {
		return nil, 0, err
	}
	noise := fst >= len(sample)
	if !noise && fst > len(sample)>>runShift {
		return dst, PlaneLevel, nil
	}
	// Without a four-byte repeat in the head (deflate's shortest match worth
	// a table slot) there are only the literals level 1 could not pack, and
	// planeLZ is not run.
	if noise && e.repeats4(plane[:noiseSample]) {
		out := e.lz.appendMember(dst, plane)
		e.lzFed += int64(len(plane))
		if len(plane)-(len(out)-len(dst)) >= len(plane)>>worthShift {
			return out, PlaneLZ, nil
		}
		dst = out[:len(dst)]
	}
	out, err := e.appendGzipMember(dst, plane, fastLevel)
	if err != nil {
		return nil, 0, err
	}
	switch fast := len(out) - len(dst); {
	case noise:
		if fast >= len(plane) {
			return out, PlaneStored, nil
		}
	case fast <= len(plane)>>worthShift:
		return out, PlaneFast, nil
	case fast <= len(plane)>>runShift:
		sample = midSample(plane, runSample)
		if fst, out, err = e.memberLen(out, sample, fastLevel); err != nil {
			return nil, 0, err
		}
		var lvl int
		if lvl, out, err = e.memberLen(out, sample, level); err != nil {
			return nil, 0, err
		}
		if fst-lvl < len(sample)>>worthShift {
			return out, PlaneFast, nil
		}
	}
	return out[:len(dst)], PlaneLevel, nil
}

// repeats4 reports whether it finds a four-byte sequence that occurs twice in
// s: one pass, one slot per hash holding the offset the sequence was last seen
// at, candidates verified. An empty slot is offset 0, whose sequence is as
// good a candidate as any, so the loop has no branch that noise makes
// unpredictable. A repeat whose first occurrence another sequence has since
// pushed out of its slot is missed, which matters to no verdict: what repays
// planeLZ's pass is hundreds of them. The table is the first 1<<repeatsBits
// slots of planeLZ's, which clears its own before it runs.
func (e *Encoder) repeats4(s []byte) bool {
	if len(s) < 4 {
		return false
	}
	grams := (*[1 << repeatsBits]uint32)(e.lz.table[:])
	clear(grams[:])
	w := binary.LittleEndian.Uint32(s)
	for i := 4; i < len(s); i++ {
		w = w>>8 | uint32(s[i])<<24
		slot := &grams[w*2654435761>>(32-repeatsBits)]
		if binary.LittleEndian.Uint32(s[*slot:]) == w {
			return true
		}
		*slot = uint32(i - 3)
	}
	return false
}

func midSample(plane []byte, n int) []byte {
	mid := (len(plane) - n) / 2
	return plane[mid : mid+n]
}

// memberLen returns the length of sample's gzip member at level. The member
// is written behind buf and dropped; buf comes back unchanged but for a grown
// backing array if the member did not fit.
func (e *Encoder) memberLen(buf, sample []byte, level int) (int, []byte, error) {
	out, err := e.appendGzipMember(buf, sample, level)
	if err != nil {
		return 0, nil, err
	}
	return len(out) - len(buf), out[:len(buf)], nil
}
