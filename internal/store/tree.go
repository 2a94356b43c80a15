package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tree is a directory of immutable files, the one directory protocol both
// backends are built on. The only way a file comes into view is put or
// publish: its bytes are written to a temp file outside the walked names,
// fsynced, and renamed to their name — so a reader sees a file whole or not
// at all, and everything visible was durable first. Every method consults
// the tree's fault before it touches the disk and reports a missing file as
// ErrNotExist; none touches a metric, which stays the backend's business.
type tree struct {
	root string // cleaned at construction
	// suffix is appended to every name on disk and never shown to the fault
	// or to walk's callback (".json" for manifests).
	suffix string
	// tmpDir and tmpPrefix name the temp files: on root's filesystem (rename
	// must not cross devices) and, where tmpDir is root itself, hidden so
	// walk skips them.
	tmpDir, tmpPrefix string
	fault             Fault
}

// path returns where a name's file lives. It is one concatenation, not a
// filepath.Join: root is clean and validName admits only clean names.
func (t *tree) path(name string) string {
	return t.root + string(filepath.Separator) + filepath.FromSlash(name) + t.suffix
}

// tmp returns a fresh temp-file path in one allocation, unique across every
// backend instance of this process. The counter is appended, not formatted:
// boxing it for fmt allocates only once it passes 255, which made what one
// write allocates depend on how many temp files came before it.
func (t *tree) tmp() string {
	b := append(make([]byte, 0, 256), t.tmpDir...)
	b = append(append(b, filepath.Separator), t.tmpPrefix...)
	b = append(append(b, tmpPid...), '-')
	return string(strconv.AppendInt(b, tmpCounter.Add(1), 10))
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

// put lands the runs, in order, under name; op (OpPut or OpCommit) is what
// the fault sees first.
func (t *tree) put(op, name string, runs ...[]byte) error {
	if err := opFault(t.fault, op, name); err != nil {
		return err
	}
	tmp := t.tmp()
	if err := writeFileSync(tmp, runs...); err != nil {
		return opErr(op, name, err)
	}
	return t.publish(tmp, name)
}

// publish renames an fsynced temp file into view as name: the package's
// only rename. It renames first, making the parent directories only when
// the rename reports them missing (after a directory's first file it does
// not), with syscall.Rename, which skips os.Rename's Lstat of the
// destination. OpPutRename fires first — failing it is the torn-write crash
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
	err := syscall.Rename(tmp, dst)
	if err == syscall.ENOENT {
		if err = os.MkdirAll(filepath.Dir(dst), 0o755); err == nil {
			err = syscall.Rename(tmp, dst)
		}
	}
	if err != nil {
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

// read returns a file's whole content, read into buf's storage when it is
// large enough (nil asks for a fresh slice).
func (t *tree) read(name string, buf []byte) ([]byte, error) {
	f, size, err := t.open(OpGet, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := slices.Grow(buf[:0], int(size))[:size]
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, opErr(OpGet, name, err)
	}
	return b, nil
}

// readPart fills p from offset off of a manifest part's file (an OpGet). A
// file whose length is not the manifest's is an error, never bytes.
func (t *tree) readPart(part Part, p []byte, off int64) error {
	if err := validName(part.Blob); err != nil {
		return err
	}
	f, size, err := t.open(OpGet, part.Blob)
	if err != nil {
		return err
	}
	defer f.Close()
	if size != part.Size {
		return fmt.Errorf("store: part %q is %d bytes, manifest says %d", part.Blob, size, part.Size)
	}
	if _, err := f.ReadAt(p, off); err != nil {
		return opErr(OpGet, part.Blob, err)
	}
	return nil
}

// stat reports a file's size and modification time.
func (t *tree) stat(name string) (int64, time.Time, error) {
	if err := opFault(t.fault, OpStat, name); err != nil {
		return 0, time.Time{}, err
	}
	var st syscall.Stat_t
	if err := statFile(t.path(name), &st); err != nil {
		return 0, time.Time{}, opErr(OpStat, name, err)
	}
	return st.Size, time.Unix(st.Mtim.Unix()), nil
}

// statFile fills st for the file at p, with no fault and no os.FileInfo to
// allocate; a directory is not a file.
func statFile(p string, st *syscall.Stat_t) error {
	err := syscall.Stat(p, st)
	if err == nil && st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		err = syscall.ENOENT
	}
	return err
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
