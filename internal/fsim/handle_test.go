package fsim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// lockstepPaths are the files the lockstep test writes: two directories on
// the private root, one nested below the other, a file whose path later
// becomes a directory (/logs/a/f, then /logs/a/f/g), and a directory on a
// mount.
var lockstepPaths = []string{
	"/logs/a/activity.log", "/logs/a/ok.flag", "/logs/a/fault.x.flag",
	"/logs/a/sub/deep.flag", "/logs/a/f", "/logs/a/f/g",
	"/nfs/pool/agents/ok.flag", "/nfs/pool/dgspl-oracle.txt", "/top.flag",
}

// lockstepDirs are the paths whose listings the test compares: the
// directories above, the root, the mount point, a file's path and a path
// that never exists.
var lockstepDirs = []string{
	"/", "/logs", "/logs/a", "/logs/a/sub", "/logs/a/f", "/nfs/pool",
	"/nfs/pool/agents", "/logs/a/ok.flag", "/missing",
}

func lockstepFS() *FS {
	fs := NewFS()
	fs.Mount("/nfs/pool", NewVolume())
	return fs
}

// errText renders an error for comparison; both namespaces report the same
// volume-local path, so their messages must match exactly.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestHandlesMatchPaths runs the same random steps on two namespaces with
// the same mounts, one through handles and one through path calls:
// rewrites, capped appends and removes, including writes below a removed
// file, which make a directory at its path. Each handle is opened at its
// first use, often before its file exists, and kept across every remove
// and re-creation. After each step, every operation's error, Exists,
// ReadLines, List and HasFileWithSuffix must agree between the two. The
// steps must reach both refusals: a write below a live file (ErrNotDir)
// and a write to a path that has become a directory (ErrIsDir).
func TestHandlesMatchPaths(t *testing.T) {
	refused := map[error]int{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byHandle, byPath := lockstepFS(), lockstepFS()
		files := map[string]File{}
		dirs := map[string]Dir{}
		file := func(p string) File {
			if _, ok := files[p]; !ok {
				files[p] = byHandle.Open(p)
			}
			return files[p]
		}
		dir := func(p string) Dir {
			if _, ok := dirs[p]; !ok {
				dirs[p] = byHandle.OpenDir(p)
			}
			return dirs[p]
		}
		for step := 0; step < 1500; step++ {
			p := lockstepPaths[rng.Intn(len(lockstepPaths))]
			var op string
			var errH, errP error
			switch r := rng.Intn(100); {
			case r < 45:
				max := []int{0, 1, 3, 8}[rng.Intn(4)]
				line := fmt.Sprintf("s%d", step)
				op = fmt.Sprintf("AppendLineCapped(%s, %s, %d)", p, line, max)
				errH = file(p).AppendLineCapped(line, max)
				errP = byPath.AppendLineCapped(p, line, max)
			case r < 70:
				lines := make([]string, rng.Intn(4))
				for i := range lines {
					lines[i] = fmt.Sprintf("w%d.%d", step, i)
				}
				op = fmt.Sprintf("WriteLines(%s, %d lines)", p, len(lines))
				errH = file(p).WriteLines(lines)
				errP = byPath.WriteLines(p, lines)
			default:
				op = fmt.Sprintf("Remove(%s)", p)
				errH = file(p).Remove()
				errP = byPath.Remove(p)
			}
			where := fmt.Sprintf("seed %d step %d %s", seed, step, op)
			if errText(errH) != errText(errP) {
				t.Fatalf("%s: handle error %v, path error %v", where, errH, errP)
			}
			for _, e := range []error{ErrIsDir, ErrNotDir} {
				if errors.Is(errH, e) {
					refused[e]++
				}
			}
			for _, q := range lockstepPaths {
				h := file(q)
				if h.Exists() != byPath.Exists(q) {
					t.Fatalf("%s: Exists(%s): handle %v, path %v", where, q, h.Exists(), byPath.Exists(q))
				}
				lh, eh := h.ReadLines()
				lp, ep := byPath.ReadLines(q)
				if errText(eh) != errText(ep) || !sameLines(lh, lp) {
					t.Fatalf("%s: ReadLines(%s): handle %v (%v), path %v (%v)", where, q, lh, eh, lp, ep)
				}
			}
			for _, d := range lockstepDirs {
				nh, eh := byHandle.List(d)
				np, ep := byPath.List(d)
				if errText(eh) != errText(ep) || !reflect.DeepEqual(nh, np) {
					t.Fatalf("%s: List(%s): handle side %v (%v), path side %v (%v)", where, d, nh, eh, np, ep)
				}
				for _, suffix := range []string{".flag", ".log", ""} {
					if got, want := dir(d).HasFileWithSuffix(suffix), byPath.HasFileWithSuffix(d, suffix); got != want {
						t.Fatalf("%s: HasFileWithSuffix(%s, %q): handle %v, path %v", where, d, suffix, got, want)
					}
				}
			}
		}
	}
	if refused[ErrIsDir] == 0 || refused[ErrNotDir] == 0 {
		t.Errorf("refusals seen: %d ErrIsDir, %d ErrNotDir; the steps must reach both", refused[ErrIsDir], refused[ErrNotDir])
	}
}

// TestHandleSeesPathWrites: a handle and a path call on one path reach one
// slot, as do two handles — two agents of one name share one lock file.
func TestHandleSeesPathWrites(t *testing.T) {
	fs := NewFS()
	const lock = "/apps/intelliagents/cpu.lock"
	a, b := fs.Open(lock), fs.Open(lock)
	if a.Exists() || fs.Exists(lock) {
		t.Fatal("Open created the file")
	}
	if err := fs.WriteLines(lock, []string{"pid=1"}); err != nil {
		t.Fatal(err)
	}
	if !a.Exists() || !b.Exists() {
		t.Error("handles miss a write by path")
	}
	if err := a.Remove(); err != nil {
		t.Fatal(err)
	}
	if b.Exists() || fs.Exists(lock) {
		t.Error("a remove through one handle is not seen by the other or by path")
	}
	if err := b.WriteLines([]string{"pid=2"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadLines(lock); !reflect.DeepEqual(got, []string{"pid=2"}) {
		t.Errorf("path read after a handle write = %v", got)
	}
}

// TestHandleRemoveRewriteAllocs: once a file's slot has its line array,
// removing and rewriting it through a handle — an agent's lock, every run
// — allocates nothing.
func TestHandleRemoveRewriteAllocs(t *testing.T) {
	fs := NewFS()
	lock := fs.Open("/apps/intelliagents/cpu.lock")
	line := []string{"pid=101"}
	if err := lock.WriteLines(line); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if lock.Remove() != nil || lock.WriteLines(line) != nil || !lock.Exists() {
			t.Fatal("remove and rewrite failed")
		}
	}); a != 0 {
		t.Errorf("remove and rewrite: %v allocs, want 0", a)
	}
}

// TestUnwrittenNamespaceAllocatesNothing: every host gets a namespace and
// most never write to it, so NewFS allocates only the FS, reads of an
// unwritten namespace answer as they would on an empty one, and resetting
// it allocates nothing. The first write makes the root's slot map.
func TestUnwrittenNamespaceAllocatesNothing(t *testing.T) {
	var fs *FS
	if a := testing.AllocsPerRun(100, func() { fs = NewFS() }); a != 1 {
		t.Errorf("NewFS: %v allocs, want 1", a)
	}
	if fs.Exists("/") || fs.Exists("/logs/intelliagents/cpu/ok.flag") {
		t.Error("Exists reports a file in an unwritten namespace")
	}
	if _, err := fs.ReadLines("/"); !errors.Is(err, ErrIsDir) {
		t.Errorf(`ReadLines("/") = %v, want ErrIsDir`, err)
	}
	if _, err := fs.ReadLines("/etc/hosts"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadLines(/etc/hosts) = %v, want ErrNotExist", err)
	}
	if names, err := fs.List("/"); err != nil || len(names) != 0 {
		t.Errorf(`List("/") = %v, %v; want no names, no error`, names, err)
	}
	if _, err := fs.List("/logs"); !errors.Is(err, ErrNotExist) {
		t.Errorf("List(/logs) = %v, want ErrNotExist", err)
	}
	if fs.HasFileWithSuffix("/", "") || fs.HasFileWithSuffix("/logs", ".flag") {
		t.Error("HasFileWithSuffix found a file in an unwritten namespace")
	}
	if err := fs.Remove("/"); !errors.Is(err, ErrNotExist) {
		t.Errorf(`Remove("/") = %v, want ErrNotExist`, err)
	}
	if a := testing.AllocsPerRun(100, fs.Reset); a != 0 {
		t.Errorf("Reset of an unwritten namespace: %v allocs, want 0", a)
	}
	if fs.root.nodes != nil {
		t.Fatal("reads or Reset made the root's slot map")
	}
	if err := fs.WriteLines("/", nil); !errors.Is(err, ErrIsDir) {
		t.Errorf(`WriteLines("/") = %v, want ErrIsDir`, err)
	}
	if err := fs.WriteLines("/etc/hosts", []string{"10.0.0.1 db001"}); err != nil {
		t.Fatal(err)
	}
	if names, err := fs.List("/etc"); err != nil || !reflect.DeepEqual(names, []string{"hosts"}) {
		t.Errorf("List(/etc) after the first write = %v, %v", names, err)
	}
}
