package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestRawAtCallsMatchSyscallPackage holds the raw *at calls to what the
// syscall package's wrappers answer, errno for errno, on a fresh fixture
// per call: a missing name, a directory, a file, a path through a file, a
// name of PATH_MAX-1 bytes (which the kernel reads) and one of PATH_MAX
// (which it refuses; cname.at leaves it nil). The name is renameat's
// destination, as in tree.publish. fstatat is held to openat + fstat, what
// tree.stat made before. A closed directory is EBADF for every call.
func TestRawAtCallsMatchSyscallPackage(t *testing.T) {
	fixture := func() *os.File {
		root := t.TempDir()
		if err := os.Mkdir(filepath.Join(root, "dir"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "f"), []byte("file"), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := os.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	errno := func(err error) syscall.Errno {
		var e syscall.Errno
		errors.As(err, &e)
		return e
	}
	type call struct {
		raw func(d *os.File, p *byte) error
		pkg func(d *os.File, name string) error
	}
	calls := map[string]call{
		"openat": {
			func(d *os.File, p *byte) error {
				fd, err := openat(d, p, syscall.O_RDONLY)
				if err == nil {
					syscall.Close(fd)
				}
				return err
			},
			func(d *os.File, name string) error {
				fd, err := syscall.Openat(int(d.Fd()), name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
				if err == nil {
					syscall.Close(fd)
				}
				return err
			}},
		"fstatat": {
			func(d *os.File, p *byte) error {
				var st syscall.Stat_t
				return fstatat(d, p, &st)
			},
			func(d *os.File, name string) error {
				fd, err := syscall.Openat(int(d.Fd()), name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
				if err == nil {
					var st syscall.Stat_t
					err = syscall.Fstat(fd, &st)
					syscall.Close(fd)
				}
				return err
			}},
		"unlinkat": {
			func(d *os.File, p *byte) error { return unlinkat(d, p) },
			func(d *os.File, name string) error { return syscall.Unlinkat(int(d.Fd()), name) }},
		"renameat": {
			func(d *os.File, p *byte) error {
				var c cname
				return renameat(d, c.at("f", ""), d, p)
			},
			func(d *os.File, name string) error { return syscall.Renameat(int(d.Fd()), "f", int(d.Fd()), name) }},
	}
	fits := strings.Repeat("a/", 2047) + "b"
	names := []string{"missing", "dir", "f", "f/x", fits, fits + "c"}
	for op, c := range calls {
		for _, name := range names {
			var cn cname
			p := cn.at(name, "")
			if got, want := errno(c.raw(fixture(), p)), errno(c.pkg(fixture(), name)); got != want {
				t.Errorf("%s of a %d-byte name %.12q: errno %d (%v), the syscall package's %d (%v)", op, len(name), name, got, got, want, want)
			}
			if p == nil {
				continue
			}
			d := fixture()
			d.Close()
			if err := c.raw(d, p); err != syscall.EBADF {
				t.Errorf("%s of %.12q on a closed directory: %v, want EBADF", op, name, err)
			}
		}
	}
}

// TestTreeStatAndOpenRules holds tree.stat and tree.open to the tree's
// rules over the raw calls: a file's size, a directory and a missing name
// as ErrNotExist, a PATH_MAX name as ENAMETOOLONG.
func TestTreeStatAndOpenRules(t *testing.T) {
	root := t.TempDir()
	d, err := openDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tr := &tree{dir: d, tmp: d, tmpPrefix: ".tmp-"}
	if err := tr.put(OpPut, "a/f", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if st, err := tr.stat(OpStat, "a/f"); err != nil || st.Size != 5 {
		t.Errorf("stat of a 5-byte file: %+v, %v", st, err)
	}
	for _, name := range []string{"a", "missing"} {
		if _, err := tr.stat(OpStat, name); err != ErrNotExist {
			t.Errorf("stat of %q: %v, want ErrNotExist", name, err)
		}
		var st syscall.Stat_t
		if _, err := tr.open(OpGet, name, &st); !errors.Is(err, ErrNotExist) {
			t.Errorf("open of %q: %v, want ErrNotExist", name, err)
		}
	}
	long := strings.Repeat("a/", 2048)[:4096]
	if _, err := tr.stat(OpStat, long[:4095]); err != ErrNotExist {
		t.Errorf("stat of a 4095-byte name: %v, want ErrNotExist", err)
	}
	if _, err := tr.stat(OpStat, long[:4095]+"b"); !errors.Is(err, syscall.ENAMETOOLONG) {
		t.Errorf("stat of a 4096-byte name: %v, want ENAMETOOLONG", err)
	}
}

// TestRetryEINTR holds every *at call's retry (sysat): an interrupted call
// is made again, any other answer is returned as it came.
func TestRetryEINTR(t *testing.T) {
	d, err := os.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var c cname
	name := c.at("x", "")
	answers := []syscall.Errno{syscall.EINTR, syscall.EINTR, 0}
	calls := 0
	r, err := sysat(d, name, func(uintptr) (uintptr, uintptr, syscall.Errno) {
		e := answers[calls]
		calls++
		return 7, 0, e
	})
	if r != 7 || err != nil || calls != 3 {
		t.Errorf("retry after two EINTR: %d, %v after %d calls; want 7, nil after 3", r, err, calls)
	}
	calls = 0
	if _, err := sysat(d, name, func(uintptr) (uintptr, uintptr, syscall.Errno) { calls++; return ^uintptr(0), 0, syscall.ENOENT }); err != syscall.ENOENT || calls != 1 {
		t.Errorf("retry of ENOENT: %v after %d calls; want ENOENT after 1", err, calls)
	}
}
