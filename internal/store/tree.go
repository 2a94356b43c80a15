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
	"unsafe"
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
// Per-file calls name their file relative to the open directories (openat,
// renameat, unlinkat, fstatat); only walk, the GC sweep and MkdirAll go by
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

// cname is a NUL-terminated name in PATH_MAX bytes on the caller's stack,
// where the syscall package's wrappers copy each name to the heap.
type cname [4096]byte

// at writes name, suffix and a NUL into c; a name that does not fit is nil,
// which sysat answers with the kernel's ENAMETOOLONG. validName refuses a
// NUL, which would cut the name short.
func (c *cname) at(name, suffix string) *byte {
	if len(name)+len(suffix) >= len(c) {
		return nil
	}
	n := copy(c[:], name)
	c[n+copy(c[n:], suffix)] = 0
	return &c[0]
}

// tmpName is a temp file's NUL-terminated name: the prefix (at most five
// bytes), the pid, a dash and the sequence number, under 40 bytes. It is
// not a cname so that a put's frame holds no PATH_MAX buffer beside the one
// publish declares.
type tmpName [64]byte

// at writes temp file seq's name into c, unique across every backend
// instance of this process. The number is appended, not formatted: boxing
// it for fmt allocates once it passes 255.
func (c *tmpName) at(prefix string, seq int64) *byte {
	b := strconv.AppendInt(append(append(append(c[:0], prefix...), tmpPid...), '-'), seq, 10)
	c[len(b)] = 0
	return &c[0]
}

// sysat makes a raw *at system call on name relative to the open directory
// d, retrying EINTR as package os does. call converts its pointers in the
// system call's own argument list, the one place the compiler keeps them
// valid through it. d's Fd is read per call: a closed directory's is -1,
// which the kernel refuses with EBADF, never a number since reused.
func sysat(d *os.File, name *byte, call func(dfd uintptr) (r1, r2 uintptr, e syscall.Errno)) (uintptr, error) {
	if name == nil {
		return ^uintptr(0), syscall.ENAMETOOLONG
	}
	defer runtime.KeepAlive(d) // d's finalizer must not close it mid-call
	for dfd := d.Fd(); ; {
		switch r, _, e := call(dfd); e {
		case 0:
			return r, nil
		case syscall.EINTR:
		default:
			return r, e
		}
	}
}

// openat opens name relative to the open directory d, close-on-exec and,
// as syscall.Openat does, with O_LARGEFILE (0 but on 386).
func openat(d *os.File, name *byte, flags int) (int, error) {
	fd, err := sysat(d, name, func(dfd uintptr) (uintptr, uintptr, syscall.Errno) {
		return syscall.Syscall6(syscall.SYS_OPENAT, dfd, uintptr(unsafe.Pointer(name)), uintptr(flags|syscall.O_CLOEXEC|syscall.O_LARGEFILE), 0o644, 0, 0)
	})
	return int(fd), err
}

// unlinkat deletes the file name relative to the open directory d.
func unlinkat(d *os.File, name *byte) error {
	_, err := sysat(d, name, func(dfd uintptr) (uintptr, uintptr, syscall.Errno) {
		return syscall.Syscall(syscall.SYS_UNLINKAT, dfd, uintptr(unsafe.Pointer(name)), 0)
	})
	return err
}

// fstatat fills st for the file name relative to the open directory d.
func fstatat(d *os.File, name *byte, st *syscall.Stat_t) error {
	_, err := sysat(d, name, func(dfd uintptr) (uintptr, uintptr, syscall.Errno) {
		return syscall.Syscall6(sysFstatat, dfd, uintptr(unsafe.Pointer(name)), uintptr(unsafe.Pointer(st)), 0, 0, 0)
	})
	return err
}

// renameat's src is a temp name, which always fits.
func renameat(from *os.File, src *byte, to *os.File, dst *byte) error {
	defer runtime.KeepAlive(to)
	tfd := to.Fd()
	_, err := sysat(from, dst, func(ffd uintptr) (uintptr, uintptr, syscall.Errno) {
		return syscall.Syscall6(sysRenameat, ffd, uintptr(unsafe.Pointer(src)), tfd, uintptr(unsafe.Pointer(dst)), 0, 0)
	})
	return err
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

// vet refuses an invalid name, then lets the fault see op ("" skips it):
// what every per-file method does before it touches the disk.
func (t *tree) vet(op, name string) error {
	if err := validName(name); err != nil {
		return err
	}
	return opFault(t.fault, op, name)
}

// put lands the runs, in order, under name; op (OpPut or OpCommit) is what
// the fault sees first, once the name is vetted. The temp file is written
// through a bare descriptor and fsynced before close, so the bytes the
// rename publishes are durable, not merely buffered.
func (t *tree) put(op, name string, runs ...[]byte) error {
	if err := t.vet(op, name); err != nil {
		return err
	}
	var c tmpName
	tmp := c.at(t.tmpPrefix, tmpCounter.Add(1))
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
func (t *tree) publish(tmp *byte, name string, then ...string) error {
	if err := opFault(t.fault, OpPutRename, name); err != nil {
		return err
	}
	for _, op := range then {
		if err := opFault(t.fault, op, name); err != nil {
			return err
		}
	}
	var c cname
	dst := c.at(name, t.suffix)
	err := renameat(t.tmp, tmp, t.dir, dst)
	if err == syscall.ENOENT {
		if err = os.MkdirAll(filepath.Dir(t.path(name)), 0o755); err == nil {
			err = renameat(t.tmp, tmp, t.dir, dst)
		}
	}
	if err != nil {
		return opErr("publish", name, err)
	}
	return nil
}

// open opens a name's file read-only and fills st; a directory is not a
// file. op (OpGet or OpOpen) is what the fault sees once the name is
// vetted. The caller closes the descriptor.
func (t *tree) open(op, name string, st *syscall.Stat_t) (int, error) {
	if err := t.vet(op, name); err != nil {
		return -1, err
	}
	var c cname
	fd, err := openat(t.dir, c.at(name, t.suffix), syscall.O_RDONLY)
	if err == nil {
		if err = notDir(st, syscall.Fstat(fd, st)); err != nil {
			syscall.Close(fd)
		}
	}
	if err != nil {
		return -1, opErr(op, name, err)
	}
	return fd, nil
}

// stat reports a file's size and modification time in one fstatat; a
// directory is not a file. op is OpStat, or "" for a commit's durability
// check, which is not a read the fault gets to fail.
func (t *tree) stat(op, name string) (ObjectStat, error) {
	if err := t.vet(op, name); err != nil {
		return ObjectStat{}, err
	}
	var c cname
	var st syscall.Stat_t
	if err := notDir(&st, fstatat(t.dir, c.at(name, t.suffix), &st)); err != nil {
		return ObjectStat{}, opErr(op, name, err)
	}
	return ObjectStat{Size: st.Size, ModTime: time.Unix(st.Mtim.Unix())}, nil
}

// notDir is err, or ENOENT for a directory: a directory is not a file.
func notDir(st *syscall.Stat_t, err error) error {
	if err == nil && st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		return syscall.ENOENT
	}
	return err
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
	if err := t.vet(OpDelete, name); err != nil {
		return err
	}
	var c cname
	if err := unlinkat(t.dir, c.at(name, t.suffix)); err != nil {
		return opErr(OpDelete, name, err)
	}
	return nil
}

// walk calls fn for every file whose name starts with prefix, in lexical
// order. Hidden entries (temps) and files without the tree's suffix are not
// names and are skipped. It consults no fault: a listing's OpList belongs to
// the backend.
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

// list returns the files under prefix, sorted by name.
func (t *tree) list(prefix string) ([]ObjectInfo, error) {
	var out []ObjectInfo
	err := t.walk(prefix, func(name string, d fs.DirEntry) error {
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
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
