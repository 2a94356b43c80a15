package transform_test

import (
	"bytes"
	"compress/gzip"
	"testing"

	"damaris/internal/cm1"
	"damaris/internal/mpi"
	"damaris/internal/transform"
)

// cm1Fields runs the mini-app for a few steps and returns one rank's output
// variables: the fields the middleware actually persists, with row-periodic
// structure no synthetic sine has.
func cm1Fields(tb testing.TB) map[string][]byte {
	tb.Helper()
	fields := make(map[string][]byte)
	err := mpi.Run(1, 1, func(comm *mpi.Comm) {
		p := cm1.Params{GlobalNX: 64, GlobalNY: 64, NZ: 20, PX: 1, PY: 1, DT: 0.05, Kappa: 0.12, WorkFactor: 1}
		sim, err := cm1.New(comm, p)
		if err != nil {
			tb.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			sim.Step()
		}
		for _, name := range cm1.VariableNames {
			fields[name] = make([]byte, 4*p.GlobalNX*p.GlobalNY*p.NZ)
			if err := sim.FieldInto(name, fields[name]); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return fields
}

// The corpus contract on the mini-app's own output: level 1 makes several of
// these planes small, and the default level makes them half that again, so
// the fast pass may be kept only where the sample says so.
func TestShuffleGzipCM1Contract(t *testing.T) {
	for name, raw := range cm1Fields(t) {
		enc, modes, err := (*transform.Encoder)(nil).ShuffleGzipTo(nil, raw, 4, gzip.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := transform.DecompressGzip(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transform.UnshuffleTo(nil, sh, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		shuffled, _ := transform.ShuffleTo(nil, raw, 4)
		whole, err := transform.CompressGzipTo(nil, shuffled, gzip.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		slack := len(whole) / 200
		if s := len(raw) / 256; s > slack {
			slack = s
		}
		if len(enc) > len(whole)+slack {
			t.Errorf("%s: planes %d B > whole chunk %d B + %d (decisions %v)", name, len(enc), len(whole), slack, modes)
		}
		t.Logf("%s: whole %d planes %d decisions %v", name, len(whole), len(enc), modes)
	}
}
