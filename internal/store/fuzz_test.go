package store

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzManifestDecode drives the objstore's manifest decoder with arbitrary
// bytes — the same hardening contract the DSF TOC decoder carries. The
// invariant is totality plus trustworthiness: corrupt input must produce an
// error, never a panic or a decoding-time blow-up, and any manifest that
// does decode must satisfy what readers rely on (valid names, positive part
// sizes, part sum equal to the object size, a digest that names its blob)
// and encode to bytes that decode to the same manifest again.
func FuzzManifestDecode(f *testing.F) {
	valid, err := json.Marshal(&Manifest{
		Object: "node0000_it000001.dsf",
		Size:   3000,
		Parts: []Part{
			{Blob: "cas/sha256/" + strings.Repeat("ab", 32), Size: 2048,
				SHA256: strings.Repeat("ab", 32)},
			{Blob: "cas/sha256/" + strings.Repeat("cd", 32), Size: 952,
				SHA256: strings.Repeat("cd", 32)},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"object":"x","size":0,"parts":[]}`))
	f.Add([]byte(`{"object":"x","size":-1}`))
	f.Add([]byte(`{"object":"../x","size":0}`))
	f.Add([]byte(`{"object":"x","size":10,"parts":[{"blob":"p","size":-10}]}`))
	f.Add([]byte(`{"object":"x","size":9223372036854775807,"parts":[{"blob":"p","size":9223372036854775807},{"blob":"q","size":1}]}`))
	f.Add([]byte(`{"object":"x","size":1,"parts":[{"blob":"p","size":1,"sha256":"zz"}]}`))
	f.Add([]byte(`{"object":"x","size":1,"parts":[{"blob":"cas/sha256/ab","size":1,"sha256":"ab"}]}`))
	f.Add([]byte(`{"object":"x","size":1,"parts":[{"blob":"cas/sha256/ab","size":1,"sha256":"cd"}]}`))
	f.Add([]byte(`{"object":"x","size":0,"parts":null}`))
	f.Add([]byte(`{"object":"a\ud800\"blob\"","size":0}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data, "")
		if err != nil {
			return
		}
		// Whatever decoded must be internally consistent.
		if err := validName(m.Object); err != nil {
			t.Fatalf("decoded manifest with invalid object name %q", m.Object)
		}
		var sum int64
		for _, p := range m.Parts {
			if p.Size <= 0 {
				t.Fatalf("decoded part with size %d", p.Size)
			}
			if err := validName(p.Blob); err != nil {
				t.Fatalf("decoded part with invalid blob name %q", p.Blob)
			}
			if p.SHA256 != "" && p.Blob != casPrefix+p.SHA256 {
				t.Fatalf("decoded digest %q that does not name blob %q", p.SHA256, p.Blob)
			}
			sum += p.Size
		}
		if sum != m.Size {
			t.Fatalf("decoded manifest size %d != part sum %d", m.Size, sum)
		}
		enc, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("a decoded manifest does not encode: %v", err)
		}
		if back, err := decodeManifest(enc, m.Object); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("re-encoded manifest decodes to %+v, %v; want %+v", back, err, m)
		}
	})
}
