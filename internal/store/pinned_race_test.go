//go:build race

package store

import (
	"strings"
	"testing"
)

// Under the race detector a part is hashed again once its put returned, so
// bytes a WritePinned caller changes before Commit returns — here from a
// fault hook, in the middle of the put — fail the object, and the blob they
// landed under a name that is not their content is gone.
func TestPinnedBytesChangedDuringPutFailCommit(t *testing.T) {
	data := pattern(1000, 4)
	s, err := NewObjStore(t.TempDir(), Options{PartSize: 1024, Fault: FaultFunc(func(op, name string) error {
		if op == OpPut {
			data[0] ^= 0xff
		}
		return nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Create("o")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePinned(data); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err == nil || !strings.Contains(err.Error(), "WritePinned") {
		t.Fatalf("Commit = %v, want the pin contract's error", err)
	}
	if blobs, err := s.blobs.list("cas/"); err != nil || len(blobs) != 0 {
		t.Errorf("blobs left behind: %v, %v", blobs, err)
	}
	if _, err := s.Manifest("o"); err == nil {
		t.Error("the object was committed")
	}
}
