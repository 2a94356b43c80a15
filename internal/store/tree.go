package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// tree is a directory of immutable files, the one directory protocol both
// backends are built on. The only way a file comes into view is put or
// publish: its bytes are written to a temp file outside the walked names,
// fsynced, and renamed to their name — so a reader sees a file whole or not
// at all, and everything visible was durable first. Every method consults
// the tree's fault before it touches the disk and reports a missing file as
// ErrNotExist; none touches a metric, which stays the backend's business.
type tree struct {
	root string
	// suffix is appended to every name on disk and never shown to the fault
	// or to walk's callback (".json" for manifests).
	suffix string
	// tmpDir and tmpPrefix name the temp files: on root's filesystem (rename
	// must not cross devices) and, where tmpDir is root itself, hidden so
	// walk skips them.
	tmpDir, tmpPrefix string
	fault             Fault
}

// path returns where a name's file lives.
func (t *tree) path(name string) string {
	return filepath.Join(t.root, filepath.FromSlash(name)+t.suffix)
}

// tmp returns a fresh temp-file path.
func (t *tree) tmp() string {
	return filepath.Join(t.tmpDir, t.tmpPrefix+tmpName())
}

// opError is a failed step on a named file. It formats only when read: the
// dedupe probe of every new part is a stat miss nobody prints.
type opError struct {
	op, name string
	err      error
}

func (e *opError) Error() string { return fmt.Sprintf("store: %s %q: %v", e.op, e.name, e.err) }
func (e *opError) Unwrap() error { return e.err }

// opErr names the failed step and maps the OS's not-exist onto ErrNotExist.
func opErr(op, name string, err error) error {
	if os.IsNotExist(err) {
		err = ErrNotExist
	}
	return &opError{op, name, err}
}

// put lands data under name; op (OpPut or OpCommit) is what the fault sees
// first.
func (t *tree) put(op, name string, data []byte) error {
	if err := opFault(t.fault, op, name); err != nil {
		return err
	}
	tmp := t.tmp()
	if err := writeFileSync(tmp, data); err != nil {
		return opErr(op, name, err)
	}
	return t.publish(tmp, name)
}

// publish renames an fsynced temp file into view as name: the package's
// only rename. OpPutRename fires first — failing it is the torn-write crash
// window, the temp stays behind and invisible — then whatever further ops
// the caller's protocol places between durable and visible.
//
// The temp was fsynced, its new parent directory is not: a published file
// survives the death of the process, not a power cut (docs/store.md, What
// "durable" means). A directory fsync, if one is ever wanted, goes after the
// rename below and nowhere else.
func (t *tree) publish(tmp, name string, then ...string) error {
	if err := opFault(t.fault, OpPutRename, name); err != nil {
		return err
	}
	for _, op := range then {
		if err := opFault(t.fault, op, name); err != nil {
			return err
		}
	}
	dst := t.path(name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return opErr("publish", name, err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return opErr("publish", name, err)
	}
	return nil
}

// open opens a file for reading and reports its length; op (OpGet or
// OpOpen) is what the fault sees.
func (t *tree) open(op, name string) (*os.File, int64, error) {
	if err := opFault(t.fault, op, name); err != nil {
		return nil, 0, err
	}
	f, err := os.Open(t.path(name))
	if err != nil {
		return nil, 0, opErr(op, name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, opErr(op, name, err)
	}
	return f, fi.Size(), nil
}

// read returns a file's whole content.
func (t *tree) read(name string) ([]byte, error) {
	f, size, err := t.open(OpGet, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, opErr(OpGet, name, err)
	}
	return b, nil
}

// stat describes a file; a directory is not one.
func (t *tree) stat(name string) (fs.FileInfo, error) {
	if err := opFault(t.fault, OpStat, name); err != nil {
		return nil, err
	}
	fi, err := os.Stat(t.path(name))
	if err == nil && fi.IsDir() {
		err = fs.ErrNotExist
	}
	if err != nil {
		return nil, opErr(OpStat, name, err)
	}
	return fi, nil
}

// remove deletes a file.
func (t *tree) remove(name string) error {
	if err := opFault(t.fault, OpDelete, name); err != nil {
		return err
	}
	if err := os.Remove(t.path(name)); err != nil {
		return opErr(OpDelete, name, err)
	}
	return nil
}

// walk calls fn for every file whose name starts with prefix, in lexical
// order. Hidden entries (temps) and files without the tree's suffix are not
// names and are skipped. It consults no fault: a listing's OpList belongs to
// the backend, which may walk several trees for one call.
func (t *tree) walk(prefix string, fn func(name string, d fs.DirEntry) error) error {
	return filepath.WalkDir(t.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p != t.root && strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, t.suffix) {
			return nil
		}
		rel, err := filepath.Rel(t.root, p)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.ToSlash(rel), t.suffix)
		if !strings.HasPrefix(name, prefix) {
			return nil
		}
		return fn(name, d)
	})
}

// list returns the files under prefix of every tree, sorted by name, each
// name once (the first tree that holds it reports its size).
func list(prefix string, trees ...*tree) ([]ObjectInfo, error) {
	seen := map[string]bool{}
	var out []ObjectInfo
	for _, t := range trees {
		err := t.walk(prefix, func(name string, d fs.DirEntry) error {
			if seen[name] {
				return nil
			}
			seen[name] = true
			fi, err := d.Info()
			if err != nil {
				return err
			}
			out = append(out, ObjectInfo{Name: name, Size: fi.Size()})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: list: %w", err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
