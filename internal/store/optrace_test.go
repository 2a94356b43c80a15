package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/optrace.golden from this run")

// opTrace drives one backend through every public call and records what no
// other test pins: the order and names of the ops its Fault sees, each call's
// outcome, the Stats counters and the directory it leaves behind.
type opTrace struct {
	mu  sync.Mutex // uploads consult the fault from their own goroutine
	out bytes.Buffer
}

var errTorn = errors.New("optrace: torn write")

// Op implements Fault: record, and tear the one put named "torn" between its
// temp write and its rename so the trace holds a failure and a stray temp.
func (tr *opTrace) Op(op, name string) error {
	tr.mu.Lock()
	fmt.Fprintf(&tr.out, "  %s %s\n", op, name)
	tr.mu.Unlock()
	if op == OpPutRename && name == "torn" {
		return errTorn
	}
	return nil
}

// call heads the ops of one public call with its name and outcome class.
func (tr *opTrace) call(what string, fn func() error) {
	tr.mu.Lock()
	fmt.Fprintf(&tr.out, "%s\n", what)
	tr.mu.Unlock()
	err := fn()
	res := "ok"
	switch {
	case errors.Is(err, ErrNotExist):
		res = "not-exist"
	case errors.Is(err, errTorn):
		res = "torn"
	case err != nil:
		res = "error"
	}
	tr.mu.Lock()
	fmt.Fprintf(&tr.out, "  -> %s\n", res)
	tr.mu.Unlock()
}

func (tr *opTrace) printf(format string, args ...any) {
	tr.mu.Lock()
	fmt.Fprintf(&tr.out, format, args...)
	tr.mu.Unlock()
}

// drive runs the fixed call sequence against b.
func (tr *opTrace) drive(t *testing.T, b Backend) {
	t.Helper()
	const partSize = 4096
	data := pattern(2*partSize+100, 5) // three parts on obj, one file on file
	var m *Manifest

	tr.call(`Put dir/a`, func() error { return b.Put("dir/a", []byte("alpha")) })
	tr.call(`Put b`, func() error { return b.Put("b", []byte("beta")) })
	tr.call(`Put torn`, func() error { return b.Put("torn", []byte("never visible")) })
	tr.call(`Get dir/a`, func() error { _, err := b.Get("dir/a"); return err })
	tr.call(`Get missing`, func() error { _, err := b.Get("missing"); return err })
	tr.call(`Stat b`, func() error { _, err := b.Stat("b"); return err })
	tr.call(`Stat missing`, func() error { _, err := b.Stat("missing"); return err })
	tr.call(`List ""`, func() error {
		infos, err := b.List("")
		tr.printf("  = %d blobs\n", len(infos))
		return err
	})
	tr.call(`List dir/`, func() error {
		infos, err := b.List("dir/")
		tr.printf("  = %d blobs\n", len(infos))
		return err
	})
	tr.call(`Create+Write+Commit obj.dsf`, func() error {
		w, err := b.Create("obj.dsf")
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		m, err = w.Commit()
		return err
	})
	if m == nil {
		t.Fatal("commit returned no manifest")
	}
	tr.printf("  = %d bytes in %d parts\n", m.Size, len(m.Parts))
	tr.call(`Create+Write+Commit twin.dsf (same bytes)`, func() error {
		w, err := b.Create("twin.dsf")
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		_, err = w.Commit()
		return err
	})
	tr.call(`Create+Write+Abort aborted.dsf`, func() error {
		w, err := b.Create("aborted.dsf")
		if err != nil {
			return err
		}
		if _, err := w.Write(data[:partSize+1]); err != nil {
			return err
		}
		return w.Abort()
	})
	tr.call(`Commit(m) obj.dsf`, func() error { return b.Commit(m) })
	tr.call(`Open+ReadAt obj.dsf across a part boundary`, func() error {
		r, err := b.Open("obj.dsf")
		if err != nil {
			return err
		}
		defer r.Close()
		got := make([]byte, 200)
		if _, err := r.ReadAt(got, partSize-100); err != nil {
			return err
		}
		if !bytes.Equal(got, data[partSize-100:partSize+100]) {
			return fmt.Errorf("ReadAt returned the wrong bytes")
		}
		return nil
	})
	tr.call(`Open missing.dsf`, func() error { _, err := b.Open("missing.dsf"); return err })
	st := b.(ObjectStater)
	tr.call(`StatObject obj.dsf`, func() error { _, err := st.StatObject("obj.dsf"); return err })
	tr.call(`StatObject missing.dsf`, func() error { _, err := st.StatObject("missing.dsf"); return err })
	tr.call(`Manifest obj.dsf`, func() error { _, err := b.Manifest("obj.dsf"); return err })
	tr.call(`Manifest missing.dsf`, func() error { _, err := b.Manifest("missing.dsf"); return err })
	tr.call(`Objects`, func() error {
		infos, err := b.Objects()
		tr.printf("  = %d objects\n", len(infos))
		return err
	})
	tr.call(`Delete dir/a`, func() error { return b.Delete("dir/a") })
	tr.call(`Delete missing`, func() error { return b.Delete("missing") })
	if c, ok := b.(Collector); ok {
		tr.call(`GC min-age<0`, func() error {
			rep, err := c.GC(GCOptions{MinAge: -1})
			tr.printf("  = %+v\n", rep)
			return err
		})
	}
	s := b.Stats()
	tr.printf("stats: Puts=%d Gets=%d Deletes=%d PutBytes=%d GetBytes=%d Failures=%d Commits=%d DedupeHits=%d\n",
		s.Puts, s.Gets, s.Deletes, s.PutBytes, s.GetBytes, s.Failures, s.Commits, s.DedupeHits)
}

// walk lists everything under root — directories, and files with size and
// content digest — with temp names (pid and counter) masked.
func (tr *opTrace) walk(t *testing.T, root string) {
	t.Helper()
	tr.printf("tree:\n")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		name := filepath.ToSlash(rel)
		if d.IsDir() {
			tr.printf("  %s/\n", name)
			return nil
		}
		for _, temp := range []string{".tmp-", "tmp/t-"} {
			if strings.HasPrefix(name, temp) {
				name = temp + "*"
			}
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		tr.printf("  %s %d %x\n", name, len(b), sha256.Sum256(b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpTraceGolden holds both backends to the recorded protocol: same fault
// ops in the same order under the same names, same counters, same bytes on
// disk. The obj store runs one upload worker so part order is a sequence.
func TestOpTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, scheme := range []string{"file", "obj"} {
		tr := &opTrace{}
		root := filepath.Join(t.TempDir(), scheme)
		var b Backend
		var err error
		if scheme == "file" {
			b, err = NewFileStore(root, Options{Fault: tr})
		} else {
			b, err = NewObjStore(root, Options{PartSize: 4096, PutWorkers: 1, Fault: tr})
		}
		if err != nil {
			t.Fatal(err)
		}
		tr.drive(t, b)
		tr.walk(t, root)
		fmt.Fprintf(&got, "=== %s ===\n%s", scheme, tr.out.Bytes())
	}
	golden := filepath.Join("testdata", "optrace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace diverges from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
