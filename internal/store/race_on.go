//go:build race

package store

import "fmt"

// checkPut hashes a part again once its put returned. Under the race
// detector, bytes that changed during the upload — a WritePinned caller that
// broke its contract — fail the object, and the blob they landed under a
// name that is not their content is removed.
func (s *ObjStore) checkPut(pt *objPart, part Part) error {
	if casPart(pt.digest(), part.Size) == part {
		return nil
	}
	_ = s.blobs.remove(part.Blob) // the object fails whether or not the blob goes
	return fmt.Errorf("store: part %s changed during its upload: WritePinned bytes must stay unmodified until Commit or Abort returns", part.Blob)
}

// poison zeroes a manifest buffer on its way back to its pool: a string
// still aliasing it then shows.
func poison(b []byte) { clear(b) }
