// Package fsim simulates the slice of Unix filesystem behaviour the paper's
// intelliagents rely on: flat ASCII files written through pipes, flag files
// under /logs/intelliagents, circular-queue performance logs, and NFS
// mounts shared between the administration servers.
//
// An FS is a single host's namespace and the only way to read or write
// files. Mounting grafts a shared *Volume into several namespaces so writes
// through one host are visible to the others, exactly like the paper's
// common pool of NFS mounted disks. Directories are created implicitly by
// the writes below them and never removed, except by Reset.
package fsim

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Errors reported by filesystem operations.
var (
	ErrNotExist = errors.New("fsim: file does not exist")
	ErrIsDir    = errors.New("fsim: path is a directory")
	ErrNotDir   = errors.New("fsim: path component is not a directory")
)

// file is a flat ASCII file. Content is held as lines, matching the
// line-oriented way every tool in the paper consumes them.
//
// The live lines are buf[head:]. A capped append (a circular log dropping
// its oldest line) advances head rather than shifting the survivors down;
// see push for when the window moves back to the front of the array.
type file struct {
	buf  []string
	head int
}

// lines returns the live window, aliasing the file's storage: callers that
// hand it out must copy it.
func (f *file) lines() []string { return f.buf[f.head:] }

// set replaces the content with a copy of lines, reusing the backing array
// where its capacity allows — flag files and locks are rewritten every
// agent run. Slots past the new content are cleared so the strings they
// held can be collected.
func (f *file) set(lines []string) {
	old := len(f.buf)
	f.buf = append(f.buf[:0], lines...)
	if n := len(f.buf); n < old {
		clear(f.buf[n:old])
	}
	f.head = 0
}

// push appends line, first dropping the oldest lines so that at most max
// remain afterwards (max <= 0: no cap). Dropped slots are cleared and the
// window start moves past them. Only when the window reaches the end of the
// backing array is it copied back to the front, into a fresh array of
// max+max/4+1 slots if the current capacity is below that or more than
// twice it. A compaction copies at most max-1 lines and the next one is at
// least max/4+1 appends away, so a capped append costs at most four line
// copies amortised whatever max is, and allocates nothing once the array
// has settled. The quarter of slack keeps the pointer arrays, which the
// collector scans, close to the size a plain capped slice would have.
func (f *file) push(line string, max int) {
	if max > 0 {
		if drop := len(f.buf) - f.head - (max - 1); drop > 0 {
			clear(f.buf[f.head : f.head+drop])
			f.head += drop
		}
	}
	if len(f.buf) == cap(f.buf) && f.head > 0 {
		live := f.buf[f.head:]
		if want := max + max/4 + 1; max > 0 && (cap(f.buf) < want || cap(f.buf) > 2*want) {
			nb := make([]string, len(live), want)
			copy(nb, live)
			f.buf = nb
		} else {
			n := copy(f.buf, live)
			clear(f.buf[n:])
			f.buf = f.buf[:n]
		}
		f.head = 0
	}
	f.buf = append(f.buf, line)
}

// Volume is a mountable tree of files, read and written only through an
// FS: as a namespace's private root, or mounted into one or more
// namespaces. Its helpers take a clean volume-local path, since FS cleans
// each path once while resolving mounts. Volumes are safe for concurrent
// use; the simulation is single-goroutine but examples may not be.
type Volume struct {
	mu    sync.Mutex
	files map[string]*file // cleaned absolute path -> file
	dirs  map[string]bool  // cleaned absolute path -> exists; ancestor-closed
	spare *file            // last removed file, recycled by the next creation
}

// NewVolume returns an empty volume containing only the root directory.
func NewVolume() *Volume {
	return &Volume{
		files: make(map[string]*file),
		dirs:  map[string]bool{"/": true},
	}
}

func clean(p string) string {
	if alreadyClean(p) {
		return p
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// alreadyClean reports whether p is already in path.Clean form ("/a/b/c"),
// the overwhelmingly common case for the fixed agent paths: rooted, no
// empty, "." or ".." segments, no trailing slash. Skipping path.Clean for
// these avoids its per-call allocation on every filesystem operation. One
// byte pass suffices: only the byte after each separator can start an
// empty, "." or ".." segment.
func alreadyClean(p string) bool {
	n := len(p)
	if n == 0 || p[0] != '/' {
		return false
	}
	if n == 1 {
		return true
	}
	if p[n-1] == '/' {
		return false
	}
	for i := 0; i < n-1; i++ {
		if p[i] != '/' {
			continue
		}
		switch p[i+1] {
		case '/':
			return false
		case '.':
			if i+2 == n || p[i+2] == '/' || (p[i+2] == '.' && (i+3 == n || p[i+3] == '/')) {
				return false
			}
		}
	}
	return true
}

// parent returns the directory containing the clean path p ("/" for "/").
func parent(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

// ensureDirs creates the missing parent directories of the clean path p,
// like mkdir -p. If a parent is a file it fails with ErrNotDir and creates
// nothing. Directories are ancestor-closed — every directory's parents
// exist — so both walks stop at the first existing directory. Every file's
// parent directories are therefore recorded for as long as it exists.
func (v *Volume) ensureDirs(p string) error {
	for d := parent(p); d != "/" && !v.dirs[d]; d = parent(d) {
		if v.files[d] != nil {
			return fmt.Errorf("%w: %s", ErrNotDir, d)
		}
	}
	for d := parent(p); d != "/" && !v.dirs[d]; d = parent(d) {
		v.dirs[d] = true
	}
	return nil
}

// open returns the file at the clean path p, creating an empty one (and
// its parent directories) if absent. An existing file costs one map lookup
// and no further checks: it cannot also be a directory, and its parents
// exist for as long as it does.
func (v *Volume) open(p string) (*file, error) {
	if f := v.files[p]; f != nil {
		return f, nil
	}
	if v.dirs[p] {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if err := v.ensureDirs(p); err != nil {
		return nil, err
	}
	f := v.takeSpare()
	v.files[p] = f
	return f, nil
}

// lookup returns the file at the clean path p for reading.
func (v *Volume) lookup(p string) (*file, error) {
	if f := v.files[p]; f != nil {
		return f, nil
	}
	if v.dirs[p] {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
}

// takeSpare returns the recycled file object if one is banked, else a new
// one. Lock and flag files cycle through remove/recreate on every agent
// run; recycling keeps that cycle allocation-free.
func (v *Volume) takeSpare() *file {
	if f := v.spare; f != nil {
		v.spare = nil
		return f
	}
	return &file{}
}

// The operations below take the volume's lock for one step each; the FS
// method of the same name documents what they do.

func (v *Volume) writeLines(p string, lines []string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, err := v.open(p)
	if err != nil {
		return err
	}
	f.set(lines)
	return nil
}

func (v *Volume) appendLine(p, line string, max int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, err := v.open(p)
	if err != nil {
		return err
	}
	f.push(line, max)
	return nil
}

func (v *Volume) readLines(p string) ([]string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, err := v.lookup(p)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), f.lines()...), nil
}

func (v *Volume) exists(p string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.files[p] != nil
}

func (v *Volume) remove(p string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	f := v.files[p]
	if f == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	delete(v.files, p)
	clear(f.buf)
	f.buf, f.head = f.buf[:0], 0
	v.spare = f
	return nil
}

func (v *Volume) list(p string) ([]string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.dirs[p] {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	var names []string
	for fp := range v.files {
		if rest, ok := below(fp, p); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// below reports whether the clean path fp lies under the clean directory
// p, and returns the rest of fp past p's separator. It matches the prefix
// in place: building p + "/" would allocate for every path longer than the
// compiler's 32-byte stack buffer, as agent flag directories are.
func below(fp, p string) (string, bool) {
	if p == "/" {
		return fp[1:], true
	}
	if len(fp) > len(p) && fp[len(p)] == '/' && fp[:len(p)] == p {
		return fp[len(p)+1:], true
	}
	return "", false
}

func (v *Volume) hasFileWithSuffix(p, suffix string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for fp := range v.files {
		if rest, ok := below(fp, p); ok && !strings.Contains(rest, "/") && strings.HasSuffix(rest, suffix) {
			return true
		}
	}
	return false
}

// Reset wipes the volume back to the state NewVolume returns — no files,
// only the root directory — while keeping the map storage allocated for
// reuse.
func (v *Volume) Reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.files)
	clear(v.dirs)
	v.dirs["/"] = true
}

// mount maps a namespace prefix onto a volume.
type mount struct {
	prefix string // e.g. "/nfs/pool"
	vol    *Volume
}

// FS is one host's filesystem namespace: a root volume plus mounts.
type FS struct {
	root   *Volume
	mounts []mount // longest-prefix wins; kept sorted by descending length
}

// NewFS returns a namespace backed by a fresh private root volume.
func NewFS() *FS { return &FS{root: NewVolume()} }

// Mount grafts vol at prefix. Paths at or below prefix resolve on vol with
// the prefix stripped, mirroring an NFS mount of a shared disk pool.
func (fs *FS) Mount(prefix string, vol *Volume) {
	prefix = clean(prefix)
	fs.mounts = append(fs.mounts, mount{prefix: prefix, vol: vol})
	sort.Slice(fs.mounts, func(i, j int) bool {
		return len(fs.mounts[i].prefix) > len(fs.mounts[j].prefix)
	})
}

// resolve maps a namespace path to (volume, clean volume-local path). It is
// the only place an FS operation cleans its path.
func (fs *FS) resolve(p string) (*Volume, string) {
	p = clean(p)
	for _, m := range fs.mounts {
		if !strings.HasPrefix(p, m.prefix) {
			continue
		}
		if len(p) == len(m.prefix) {
			return m.vol, "/"
		}
		if p[len(m.prefix)] == '/' {
			return m.vol, p[len(m.prefix):]
		}
	}
	return fs.root, p
}

// WriteLines replaces the file at p with the given lines, creating parent
// directories as needed (like a shell redirection after mkdir -p).
func (fs *FS) WriteLines(p string, lines []string) error {
	v, vp := fs.resolve(p)
	return v.writeLines(vp, lines)
}

// AppendLineCapped appends one line to the file at p, creating it if
// absent, and then discards the oldest lines beyond max, in one step — the
// primitive circular logs are built on. A max <= 0 means no cap. Dropping
// the oldest line moves the start of the file's window instead of shifting
// the rest, and the window is compacted only when it reaches the end of
// its backing array (about 1.25×max slots), so the cost is amortised O(1)
// in max.
func (fs *FS) AppendLineCapped(p, line string, max int) error {
	v, vp := fs.resolve(p)
	return v.appendLine(vp, line, max)
}

// ReadLines returns a copy of the lines of the file at p.
func (fs *FS) ReadLines(p string) ([]string, error) {
	v, vp := fs.resolve(p)
	return v.readLines(vp)
}

// Exists reports whether a file (not a directory) exists at p.
func (fs *FS) Exists(p string) bool {
	v, vp := fs.resolve(p)
	return v.exists(vp)
}

// Remove deletes the file at p. Removing a missing file returns
// ErrNotExist, matching rm semantics.
func (fs *FS) Remove(p string) error {
	v, vp := fs.resolve(p)
	return v.remove(vp)
}

// List returns the sorted basenames of the files directly inside
// directory p.
func (fs *FS) List(p string) ([]string, error) {
	v, vp := fs.resolve(p)
	return v.list(vp)
}

// HasFileWithSuffix reports whether directory p directly contains a file
// whose name ends in suffix — the allocation-free existence probe sweep
// loops use in place of List. A missing or empty directory reports false.
func (fs *FS) HasFileWithSuffix(p, suffix string) bool {
	v, vp := fs.resolve(p)
	return v.hasFileWithSuffix(vp, suffix)
}

// Reset wipes the namespace back to the state NewFS returns: the private
// root volume is emptied (allocation kept) and all mounts are dropped.
// Shared volumes that were mounted are left untouched — they may be
// mounted elsewhere; resetting them is their owner's call.
func (fs *FS) Reset() {
	fs.root.Reset()
	fs.mounts = nil
}
