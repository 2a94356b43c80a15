package store

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"syscall"
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

// FuzzNameAt holds the name builder behind every *at call (tree.go) to its
// contract for any name and suffix bytes — object names reach it from the
// gateway's HTTP requests. Each input ends one of three ways: validName
// refuses the name (always, when it holds a NUL); the C name is exactly the
// name, the suffix and a NUL; or a raw call on it answers ENAMETOOLONG,
// exactly when name and suffix come to PATH_MAX (4096) bytes or more.
func FuzzNameAt(f *testing.F) {
	d, err := os.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	fits := strings.Repeat("a/", 2047) + "b" // 4095 bytes
	f.Add("node0000_it000001.dsf", ".json")
	f.Add("cas/sha256/"+strings.Repeat("ab", 32), "")
	f.Add("a\x00b.dsf", "")
	f.Add(fits, "")
	f.Add(fits, "c")
	f.Add(fits[:4091], ".json")
	f.Add(strings.Repeat("x", 5000), "")
	f.Fuzz(func(t *testing.T, name, suffix string) {
		if validName(name) != nil {
			return
		}
		if strings.IndexByte(name, 0) >= 0 {
			t.Fatalf("validName admits %q, which holds a NUL", name)
		}
		var c cname
		p := c.at(name, suffix)
		n := len(name) + len(suffix)
		if n >= len(c) {
			var st syscall.Stat_t
			if err := fstatat(d, p, &st); p != nil || err != syscall.ENAMETOOLONG {
				t.Fatalf("%d-byte name and suffix: %v, want ENAMETOOLONG", n, err)
			}
			return
		}
		if p != &c[0] || string(c[:n]) != name+suffix || c[n] != 0 {
			t.Fatalf("C name %q, want %q and a NUL", c[:n+1], name+suffix)
		}
	})
}
