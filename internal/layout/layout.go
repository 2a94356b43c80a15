// Package layout describes the shape and type of the datasets exchanged
// between Damaris clients and dedicated cores.
//
// In the paper (§III-B, "Metadata management"), every variable written by a
// client is characterized by a tuple ⟨name, iteration, source, layout⟩ where
// the layout is "a description of the structure of the data: type, number of
// dimensions and extents". Layouts are normally static and provided by the
// external configuration file so that only minimal descriptors cross the
// shared memory.
package layout

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the element types supported by layouts. They mirror the
// types CM1/HDF5 deal in.
type Type uint8

// Supported element types.
const (
	Invalid Type = iota
	Int32
	Int64
	Float32
	Float64
	Byte
)

// Size returns the size of one element of the type, in bytes.
func (t Type) Size() int {
	switch t {
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	case Byte:
		return 1
	default:
		return 0
	}
}

// String returns the configuration-file spelling of the type.
func (t Type) String() string {
	switch t {
	case Int32:
		return "int"
	case Int64:
		return "long"
	case Float32:
		return "real"
	case Float64:
		return "double"
	case Byte:
		return "byte"
	default:
		return "invalid"
	}
}

// ParseType converts a configuration-file type name into a Type. The
// accepted names follow the paper's XML examples ("real" is a 32-bit float,
// as in Fortran).
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "int32", "integer":
		return Int32, nil
	case "long", "int64":
		return Int64, nil
	case "real", "float", "float32":
		return Float32, nil
	case "double", "float64":
		return Float64, nil
	case "byte", "char", "uint8":
		return Byte, nil
	default:
		return Invalid, fmt.Errorf("layout: unknown type %q", s)
	}
}

// Layout is an immutable description of an N-dimensional array: element type
// plus extents. Extents are stored slowest-varying first (C order); the
// Fortran-order convenience in the config package reverses declared
// dimensions so that in-memory traversal matches.
type Layout struct {
	typ     Type
	extents []int64
}

// New builds a layout from a type and extents. Every extent must be
// positive and the total byte size must fit in an int64.
func New(t Type, extents ...int64) (Layout, error) {
	return adopt(t, append([]int64(nil), extents...))
}

// adopt is New for extents the caller hands over: the layout keeps them.
func adopt(t Type, extents []int64) (Layout, error) {
	if t == Invalid || t.Size() == 0 {
		return Layout{}, fmt.Errorf("layout: invalid element type")
	}
	if len(extents) == 0 {
		return Layout{}, fmt.Errorf("layout: need at least one extent")
	}
	total := int64(t.Size())
	for _, e := range extents {
		if e <= 0 {
			return Layout{}, fmt.Errorf("layout: non-positive extent %d", e)
		}
		if total > (1<<62)/e {
			return Layout{}, fmt.Errorf("layout: size overflow")
		}
		total *= e
	}
	return Layout{typ: t, extents: extents}, nil
}

// MustNew is New but panics on error; for tests and static tables.
func MustNew(t Type, extents ...int64) Layout {
	l, err := New(t, extents...)
	if err != nil {
		panic(err)
	}
	return l
}

// Type returns the element type.
func (l Layout) Type() Type { return l.typ }

// Extents returns a copy of the extents.
func (l Layout) Extents() []int64 { return append([]int64(nil), l.extents...) }

// Elems returns the total number of elements.
func (l Layout) Elems() int64 {
	if len(l.extents) == 0 {
		return 0
	}
	n := int64(1)
	for _, e := range l.extents {
		n *= e
	}
	return n
}

// Bytes returns the total size of the array in bytes.
func (l Layout) Bytes() int64 { return l.Elems() * int64(l.typ.Size()) }

// IsZero reports whether l is the zero (unspecified) layout.
func (l Layout) IsZero() bool { return l.typ == Invalid && len(l.extents) == 0 }

// Equal reports whether two layouts describe identical shapes.
func (l Layout) Equal(o Layout) bool {
	if l.typ != o.typ || len(l.extents) != len(o.extents) {
		return false
	}
	for i := range l.extents {
		if l.extents[i] != o.extents[i] {
			return false
		}
	}
	return true
}

// String renders the layout like "real[64,16,2]".
func (l Layout) String() string {
	if l.IsZero() {
		return "layout(zero)"
	}
	parts := make([]string, len(l.extents))
	for i, e := range l.extents {
		parts[i] = strconv.FormatInt(e, 10)
	}
	return fmt.Sprintf("%s[%s]", l.typ, strings.Join(parts, ","))
}

// ParseDims parses a comma-separated dimensions attribute such as
// "64,16,2" into extents.
func ParseDims(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("layout: bad dimension %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Reverse returns a layout with reversed extents. Fortran programs declare
// dimensions fastest-varying first; the configuration loader uses Reverse to
// normalize them to C order.
func (l Layout) Reverse() Layout {
	rev := make([]int64, len(l.extents))
	for i, e := range l.extents {
		rev[len(rev)-1-i] = e
	}
	return Layout{typ: l.typ, extents: rev}
}

// descriptorVersion guards the wire encoding of layout descriptors.
const descriptorVersion = 1

// Marshal encodes the layout into a compact binary descriptor. The
// descriptor is what crosses the shared memory when a layout is not static
// (e.g. particle arrays whose shape changes every iteration).
func (l Layout) Marshal() []byte {
	buf := make([]byte, 0, 3+8*len(l.extents))
	buf = append(buf, descriptorVersion, byte(l.typ), byte(len(l.extents)))
	var tmp [8]byte
	for _, e := range l.extents {
		binary.LittleEndian.PutUint64(tmp[:], uint64(e))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// Unmarshal decodes a descriptor produced by Marshal.
func Unmarshal(b []byte) (Layout, error) {
	if len(b) < 3 {
		return Layout{}, fmt.Errorf("layout: descriptor too short")
	}
	if b[0] != descriptorVersion {
		return Layout{}, fmt.Errorf("layout: unknown descriptor version %d", b[0])
	}
	t := Type(b[1])
	nd := int(b[2])
	if t.Size() == 0 {
		return Layout{}, fmt.Errorf("layout: invalid type in descriptor")
	}
	if len(b) != 3+8*nd {
		return Layout{}, fmt.Errorf("layout: descriptor length %d does not match %d dims", len(b), nd)
	}
	extents := make([]int64, nd)
	for i := 0; i < nd; i++ {
		extents[i] = int64(binary.LittleEndian.Uint64(b[3+8*i:]))
	}
	return adopt(t, extents)
}

// Block identifies a rectangular sub-region of a global domain, used by the
// collective-I/O path and by the DSF format to record where each writer's
// chunk sits in the global array.
type Block struct {
	Start []int64 // inclusive start per dimension
	Count []int64 // extent per dimension
}

// Valid reports whether the block is well-formed: matching ranks and
// positive counts.
func (b Block) Valid() bool {
	if len(b.Start) != len(b.Count) || len(b.Start) == 0 {
		return false
	}
	for i := range b.Count {
		if b.Count[i] <= 0 || b.Start[i] < 0 {
			return false
		}
	}
	return true
}

// Elems returns the number of elements covered by the block.
func (b Block) Elems() int64 {
	if !b.Valid() {
		return 0
	}
	n := int64(1)
	for _, c := range b.Count {
		n *= c
	}
	return n
}
