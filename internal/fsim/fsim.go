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
//
// Files are reached by path or through handles. FS.Open resolves a path
// once, to its volume's slot for it, and returns a File whose operations
// clean, resolve and hash nothing. A path call and a handle on the same
// path reach the same slot, so each sees the other's writes. Agents, which
// touch the same few files on every run, hold handles; path calls serve
// everything else.
//
// Concurrency follows the simulation's phase rule instead of a lock: files
// are written, and handles opened, only on the event loop or in the serial
// apply phase of a sharded tick, and concurrent work may only read
// (FS.ReadLines and FS.List by path, File.Exists through a handle opened
// earlier). No concurrent phase reads a volume today: the sharded probe
// walks touch no files, and agents run on the event loop. A Volume, and so
// every FS it is mounted in, is not safe for use by a writer concurrently
// with anything else.
package fsim

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
)

// Errors reported by filesystem operations.
var (
	ErrNotExist = errors.New("fsim: file does not exist")
	ErrIsDir    = errors.New("fsim: path is a directory")
	ErrNotDir   = errors.New("fsim: path component is not a directory")
)

// node is one path on a volume: a file's slot, a directory, or both. A
// slot outlives its file: Remove marks it not live and keeps its line
// array, so handles stay valid, and re-creating the file (an agent's lock,
// every run) costs no map operation and no allocation. A directory can
// later be made at a removed file's path; the slot then stays, not live,
// and writing to it fails with ErrIsDir.
//
// Content is held as lines, matching the line-oriented way every tool in
// the paper consumes files. The live lines are buf[head:]. A capped append
// (a circular log dropping its oldest line) advances head rather than
// shifting the survivors down; see push for when the window moves back to
// the front of the array.
type node struct {
	buf  []string
	head int
	live bool // a file exists at this path
	dir  bool // a directory exists at this path
	// placed records that the slot is listed in its parent directory,
	// which therefore exists: directories are removed only by Reset.
	placed bool
	path   string  // clean volume-local path, for errors
	name   string  // base name, as List reports it
	files  []*node // a directory's file slots, live or not, sorted by name
}

// bareRoot is the root directory of a volume nothing has written, whose
// slot map does not exist yet. Only reads reach it.
var bareRoot = node{path: "/", dir: true}

// lines returns the live window, aliasing the file's storage: callers that
// hand it out must copy it.
func (n *node) lines() []string { return n.buf[n.head:] }

// set replaces the content with a copy of lines, reusing the backing array
// where its capacity allows — flag files and locks are rewritten every
// agent run. Slots past the new content are cleared so the strings they
// held can be collected.
func (n *node) set(lines []string) {
	old := len(n.buf)
	n.buf = append(n.buf[:0], lines...)
	if k := len(n.buf); k < old {
		clear(n.buf[k:old])
	}
	n.head = 0
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
func (n *node) push(line string, max int) {
	if max > 0 {
		if drop := len(n.buf) - n.head - (max - 1); drop > 0 {
			clear(n.buf[n.head : n.head+drop])
			n.head += drop
		}
	}
	if len(n.buf) == cap(n.buf) && n.head > 0 {
		live := n.buf[n.head:]
		if want := max + max/4 + 1; max > 0 && (cap(n.buf) < want || cap(n.buf) > 2*want) {
			nb := make([]string, len(live), want)
			copy(nb, live)
			n.buf = nb
		} else {
			k := copy(n.buf, live)
			clear(n.buf[k:])
			n.buf = n.buf[:k]
		}
		n.head = 0
	}
	n.buf = append(n.buf, line)
}

func (n *node) readLines() ([]string, error) {
	switch {
	case n.live:
		return append([]string(nil), n.lines()...), nil
	case n.dir:
		return nil, fmt.Errorf("%w: %s", ErrIsDir, n.path)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotExist, n.path)
}

// remove deletes the file, keeping its slot and its line array.
func (n *node) remove() error {
	if !n.live {
		return fmt.Errorf("%w: %s", ErrNotExist, n.path)
	}
	n.live = false
	clear(n.buf)
	n.buf, n.head = n.buf[:0], 0
	return nil
}

// list returns the sorted names of the files directly inside n (none when
// n is not a directory).
func (n *node) list() []string {
	var names []string
	for _, f := range n.files {
		if f.live {
			names = append(names, f.name)
		}
	}
	return names
}

// Volume is a mountable tree of files, read and written only through an
// FS: as a namespace's private root, or mounted into one or more
// namespaces. It keeps one slot per path it has written or opened, keyed
// by the clean volume-local path that FS computes once while resolving
// mounts; each directory's slot lists the file slots directly inside it.
// The slot map is made by the first write or Open, so a volume nothing
// writes allocates nothing. A Volume has no lock: it follows the
// package's phase rule, under which only reads run concurrently.
type Volume struct {
	nodes map[string]*node // nil until the first write or Open
}

// NewVolume returns an empty volume containing only the root directory.
func NewVolume() *Volume { return &Volume{} }

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

// node returns the slot at the clean path p, or nil if the volume has
// none. It only reads, so the read calls built on it may run concurrently.
func (v *Volume) node(p string) *node {
	if v.nodes == nil && p == "/" {
		return &bareRoot
	}
	return v.nodes[p]
}

// slot returns the node at the clean path p, adding a bare one (no file,
// no directory) if the volume has none. The first slot on a volume makes
// its map, holding the root directory.
func (v *Volume) slot(p string) *node {
	if v.nodes == nil {
		v.nodes = map[string]*node{"/": {path: "/", dir: true}}
	}
	n := v.nodes[p]
	if n == nil {
		n = &node{path: p, name: p[strings.LastIndexByte(p, '/')+1:]}
		v.nodes[p] = n
	}
	return n
}

// mkdirAll returns the directory at the clean path d, creating it and its
// missing parents like mkdir -p. Directories are ancestor-closed — every
// directory's parents exist — so both walks stop at the first existing
// directory, the root at the latest. If d or a parent is a file it fails
// with ErrNotDir and creates nothing.
func (v *Volume) mkdirAll(d string) (*node, error) {
	for q := d; ; q = parent(q) {
		n := v.nodes[q]
		if n != nil && n.dir {
			break
		}
		if n != nil && n.live {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, q)
		}
	}
	for q := d; ; q = parent(q) {
		n := v.slot(q)
		if n.dir {
			break
		}
		n.dir = true
	}
	return v.nodes[d], nil
}

// create makes the file at n exist, empty. Its first creation lists the
// slot in its parent directory, creating the parents like mkdir -p; a
// re-creation after Remove only checks that no directory has been made at
// the path since. It fails with ErrIsDir if n is a directory and with
// ErrNotDir if a parent is a file, creating nothing.
func (v *Volume) create(n *node) error {
	if n.dir {
		return fmt.Errorf("%w: %s", ErrIsDir, n.path)
	}
	if !n.placed {
		d, err := v.mkdirAll(parent(n.path))
		if err != nil {
			return err
		}
		i, _ := slices.BinarySearchFunc(d.files, n.name, func(f *node, name string) int {
			return strings.Compare(f.name, name)
		})
		d.files = slices.Insert(d.files, i, n)
		n.placed = true
	}
	n.live = true
	return nil
}

// Reset wipes the volume back to the state NewVolume returns — no files,
// only the root directory — while keeping the map storage allocated for
// reuse; a volume nothing has written allocates nothing. Every handle on
// the volume is invalid afterwards.
func (v *Volume) Reset() {
	if v.nodes == nil {
		return
	}
	root := v.nodes["/"]
	clear(v.nodes)
	clear(root.files)
	root.files = root.files[:0]
	v.nodes["/"] = root
}

// File is a handle on one path's file slot, from FS.Open. Its WriteLines
// and Remove do what the FS calls of the same names do on that path,
// without cleaning, resolving or hashing it; Exists and AppendLineCapped
// are handle calls only. The file may be removed and re-created any
// number of times, by the handle or by path, and the handle stays valid;
// two handles on one path, or a handle and a path call, reach the same
// slot. Hold it by value.
//
// A handle is invalid after its volume's Reset (FS.Reset, for a host's
// private root): whoever resets a volume rebuilds the holders of its
// handles, which open them again. Site.Reset does this: it resets every
// host's namespace and then deploys new agents, which open theirs at their
// first run.
type File struct {
	v *Volume
	n *node
}

// Exists reports whether the file exists.
func (f File) Exists() bool { return f.n.live }

// WriteLines replaces the file with the given lines, creating it and its
// parent directories as needed.
func (f File) WriteLines(lines []string) error {
	if !f.n.live {
		if err := f.v.create(f.n); err != nil {
			return err
		}
	}
	f.n.set(lines)
	return nil
}

// AppendLineCapped appends one line to the file, creating it if absent,
// and then discards the oldest lines beyond max, in one step — the
// primitive circular logs are built on. A max <= 0 means no cap. Dropping
// the oldest line moves the start of the file's window instead of shifting
// the rest, and the window is compacted only when it reaches the end of
// its backing array (about 1.25×max slots), so the cost is amortised O(1)
// in max.
func (f File) AppendLineCapped(line string, max int) error {
	if !f.n.live {
		if err := f.v.create(f.n); err != nil {
			return err
		}
	}
	f.n.push(line, max)
	return nil
}

// Remove deletes the file; the handle stays valid.
func (f File) Remove() error { return f.n.remove() }

// mount maps a namespace prefix onto a volume.
type mount struct {
	prefix string // e.g. "/nfs/pool"
	vol    *Volume
}

// FS is one host's filesystem namespace: a private root volume, held in
// place, plus mounts.
type FS struct {
	root   Volume
	mounts []mount // longest-prefix wins; kept sorted by descending length
}

// NewFS returns a namespace backed by a fresh private root volume. It
// allocates only the FS: the root's slot map waits for the first write.
func NewFS() *FS { return &FS{} }

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
	return &fs.root, p
}

// lookup returns the node at p, nil if its volume has none, and the clean
// volume-local path. Unlike Open it adds nothing, so the read calls built
// on it may run concurrently.
func (fs *FS) lookup(p string) (*node, string) {
	v, vp := fs.resolve(p)
	return v.node(vp), vp
}

// Open returns a handle on the file at p, which need not exist: the path
// is cleaned and resolved here, once. Open adds the path's slot to its
// volume, so under the phase rule it is a write.
func (fs *FS) Open(p string) File {
	v, vp := fs.resolve(p)
	return File{v: v, n: v.slot(vp)}
}

// WriteLines replaces the file at p with the given lines, creating parent
// directories as needed (like a shell redirection after mkdir -p).
func (fs *FS) WriteLines(p string, lines []string) error {
	return fs.Open(p).WriteLines(lines)
}

// ReadLines returns a copy of the lines of the file at p.
func (fs *FS) ReadLines(p string) ([]string, error) {
	n, vp := fs.lookup(p)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, vp)
	}
	return n.readLines()
}

// Remove deletes the file at p. Removing a missing file returns
// ErrNotExist, matching rm semantics.
func (fs *FS) Remove(p string) error {
	n, vp := fs.lookup(p)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, vp)
	}
	return n.remove()
}

// List returns the sorted basenames of the files directly inside
// directory p.
func (fs *FS) List(p string) ([]string, error) {
	n, vp := fs.lookup(p)
	if n == nil || !n.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, vp)
	}
	return n.list(), nil
}

// Reset wipes the namespace back to the state NewFS returns: the private
// root volume is emptied (allocation kept) and all mounts are dropped.
// Shared volumes that were mounted are left untouched — they may be
// mounted elsewhere; resetting them is their owner's call. Handles on the
// root volume are invalid afterwards (see File).
func (fs *FS) Reset() {
	fs.root.Reset()
	fs.mounts = nil
}
