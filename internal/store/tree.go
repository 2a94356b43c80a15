package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
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
// at all, and everything visible was durable first. Every per-file method
// vets the name, consults the tree's fault before it touches the disk and
// reports a missing file as ErrNotExist; none touches a metric, which stays
// the backend's business.
//
// Per-file calls name their file relative to the open directories
// (Openat, Renameat, Unlinkat); only walk, the GC sweep and MkdirAll go by
// path. Fd is read per call: once the backend closes a directory it is -1,
// which every *at call refuses, never a descriptor number since reused.
type tree struct {
	dir *os.File // the root, opened by its clean path
	// suffix is appended to every name on disk and never shown to the fault
	// or to walk's callback (".json" for manifests).
	suffix string
	// tmp and tmpPrefix name the temp files: on dir's filesystem (rename
	// must not cross devices) and, where tmp is dir itself, hidden so walk
	// skips them.
	tmp       *os.File
	tmpPrefix string
	fault     Fault
}

// openDir creates a directory if needed and opens it for a tree.
func openDir(path string) (*os.File, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return os.Open(path)
}

// path returns where a name's file lives, for the calls that go by path. It
// is one concatenation, not a filepath.Join: the root is clean and validName
// admits only clean names.
func (t *tree) path(name string) string {
	return t.dir.Name() + string(filepath.Separator) + filepath.FromSlash(name) + t.suffix
}

// tmpName returns a fresh temp-file name, relative to tmp, in one
// allocation, unique across every backend instance of this process. The
// counter is appended, not formatted: boxing it for fmt allocates only once
// it passes 255, which made what one write allocates depend on how many
// temp files came before it.
func (t *tree) tmpName() string {
	b := append(make([]byte, 0, 64), t.tmpPrefix...)
	b = append(append(b, tmpPid...), '-')
	return string(strconv.AppendInt(b, tmpCounter.Add(1), 10))
}

// openat opens name relative to the open directory d, close-on-exec, and
// retries EINTR as os.OpenFile does.
func openat(d *os.File, name string, flags int) (int, error) {
	defer runtime.KeepAlive(d) // d's finalizer must not close it mid-call
	for {
		fd, err := syscall.Openat(int(d.Fd()), name, flags|syscall.O_CLOEXEC, 0o644)
		if err != syscall.EINTR {
			return fd, err
		}
	}
}

// unlinkat deletes the file name relative to the open directory d.
func unlinkat(d *os.File, name string) error {
	defer runtime.KeepAlive(d)
	return syscall.Unlinkat(int(d.Fd()), name)
}

// full moves all of p from offset off with rw (syscall.Pread or Pwrite),
// resuming a short transfer and retrying EINTR; a transfer that moves
// nothing (a file that ends first) is io.ErrUnexpectedEOF.
func full(rw func(int, []byte, int64) (int, error), fd int, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := rw(fd, p, off)
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return err
		case n == 0:
			return io.ErrUnexpectedEOF
		default:
			p, off = p[n:], off+int64(n)
		}
	}
	return nil
}

// opErr names the failed step and maps the OS's not-exist onto ErrNotExist.
// A stat's miss is ErrNotExist itself, no PathError: the dedupe probe of
// every new part is one, and nobody prints it.
func opErr(op, name string, err error) error {
	if os.IsNotExist(err) {
		if op == OpStat {
			return ErrNotExist
		}
		err = ErrNotExist
	}
	return &fs.PathError{Op: op, Path: name, Err: err}
}

// put lands the runs, in order, under name; op (OpPut or OpCommit) is what
// the fault sees first, once the name is vetted. The temp file is written
// through a bare descriptor and fsynced before close, so the bytes the
// rename publishes are durable, not merely buffered.
func (t *tree) put(op, name string, runs ...[]byte) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := opFault(t.fault, op, name); err != nil {
		return err
	}
	tmp := t.tmpName()
	fd, err := openat(t.tmp, tmp, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_TRUNC)
	if err != nil {
		return opErr(op, name, err)
	}
	var off int64
	for _, r := range runs {
		if err = full(syscall.Pwrite, fd, r, off); err != nil {
			break
		}
		off += int64(len(r))
	}
	if err == nil {
		err = syscall.Fsync(fd)
		for err == syscall.EINTR {
			err = syscall.Fsync(fd)
		}
	}
	if cerr := syscall.Close(fd); err == nil {
		err = cerr
	}
	if err != nil {
		return opErr(op, name, err)
	}
	return t.publish(tmp, name)
}

// publish renames an fsynced temp file, named relative to tmp, into view as
// name: the package's only rename. It renames first, making the parent
// directories only when the rename reports them missing (after a
// directory's first file it does not). OpPutRename fires first — failing it
// is the torn-write crash window, the temp stays behind and invisible —
// then whatever further ops the caller's protocol places between durable
// and visible.
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
	defer runtime.KeepAlive(t)
	dst := name + t.suffix
	err := syscall.Renameat(int(t.tmp.Fd()), tmp, int(t.dir.Fd()), dst)
	if err == syscall.ENOENT {
		if err = os.MkdirAll(filepath.Dir(t.path(name)), 0o755); err == nil {
			err = syscall.Renameat(int(t.tmp.Fd()), tmp, int(t.dir.Fd()), dst)
		}
	}
	if err != nil {
		return opErr("publish", name, err)
	}
	return nil
}

// open opens a name's file read-only and fills st; a directory is not a
// file. op (OpGet, OpOpen or OpStat) is what the fault sees once the name is
// vetted, and "" skips it: a commit's durability check is not a read the
// fault gets to fail. The caller closes the descriptor.
func (t *tree) open(op, name string, st *syscall.Stat_t) (int, error) {
	if err := validName(name); err != nil {
		return -1, err
	}
	if err := opFault(t.fault, op, name); err != nil {
		return -1, err
	}
	fd, err := openat(t.dir, name+t.suffix, syscall.O_RDONLY)
	if err == nil {
		if err = syscall.Fstat(fd, st); err == nil && st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
			err = syscall.ENOENT
		}
		if err != nil {
			syscall.Close(fd)
		}
	}
	if err != nil {
		return -1, opErr(op, name, err)
	}
	return fd, nil
}

// stat reports a file's size and modification time: Openat, Fstat, Close,
// as the syscall package has no Fstatat on every architecture. A miss is
// still one system call.
func (t *tree) stat(op, name string) (ObjectStat, error) {
	var st syscall.Stat_t
	fd, err := t.open(op, name, &st)
	if err != nil {
		return ObjectStat{}, err
	}
	syscall.Close(fd)
	return ObjectStat{Size: st.Size, ModTime: time.Unix(st.Mtim.Unix())}, nil
}

// read returns a file's whole content, read into buf's storage when it is
// large enough (nil asks for a fresh slice).
func (t *tree) read(name string, buf []byte) ([]byte, error) {
	var st syscall.Stat_t
	fd, err := t.open(OpGet, name, &st)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	b := slices.Grow(buf[:0], int(st.Size))[:st.Size]
	if err := full(syscall.Pread, fd, b, 0); err != nil {
		return nil, opErr(OpGet, name, err)
	}
	return b, nil
}

// readPart fills p from offset off of a manifest part's file (an OpGet). A
// file whose length is not the manifest's is an error, never bytes.
func (t *tree) readPart(part Part, p []byte, off int64) error {
	var st syscall.Stat_t
	fd, err := t.open(OpGet, part.Blob, &st)
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	if st.Size != part.Size {
		return fmt.Errorf("store: part %q is %d bytes, manifest says %d", part.Blob, st.Size, part.Size)
	}
	if err := full(syscall.Pread, fd, p, off); err != nil {
		return opErr(OpGet, part.Blob, err)
	}
	return nil
}

// remove deletes a file.
func (t *tree) remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := opFault(t.fault, OpDelete, name); err != nil {
		return err
	}
	if err := unlinkat(t.dir, name+t.suffix); err != nil {
		return opErr(OpDelete, name, err)
	}
	return nil
}

// walk calls fn for every file whose name starts with prefix, in lexical
// order. Hidden entries (temps) and files without the tree's suffix are not
// names and are skipped. It consults no fault: a listing's OpList belongs to
// the backend, which may walk several trees for one call.
func (t *tree) walk(prefix string, fn func(name string, d fs.DirEntry) error) error {
	if int(t.dir.Fd()) < 0 {
		return os.ErrClosed
	}
	root := t.dir.Name()
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p != root && strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, t.suffix) {
			return nil
		}
		rel, err := filepath.Rel(root, p)
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
