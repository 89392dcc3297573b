package fsim

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"sync"
	"testing"
)

// windowModel is the naive reference for one file: its lines held as a
// plain slice, trimmed by re-slicing a copy, plus the volume's stamp.
type windowModel struct {
	exists bool
	lines  []string
	mtime  int64
	stamp  int64
}

func (m *windowModel) write(lines []string) {
	m.exists = true
	m.lines = append([]string(nil), lines...)
	m.stamp++
	m.mtime = m.stamp
}

func (m *windowModel) append(line string, max int) {
	m.exists = true
	m.lines = append(append([]string(nil), m.lines...), line)
	if max > 0 && len(m.lines) > max {
		m.lines = m.lines[len(m.lines)-max:]
	}
	m.stamp++
	m.mtime = m.stamp
}

func (m *windowModel) remove() {
	m.exists = false
	m.lines = nil
	m.mtime = 0
}

// TestWindowMatchesModel interleaves every operation that touches a file's
// line window — capped appends with varying caps, plain appends, rewrites,
// removes, touches, subtree removal and all three readers — on one path,
// and checks the volume against the naive model after every step.
func TestWindowMatchesModel(t *testing.T) {
	const p = "/logs/agent/activity.log"
	maxes := []int{0, 1, 2, 3, 5, 8, 20}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewFS()
		var m windowModel
		for step := 0; step < 6000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 60:
				max := maxes[rng.Intn(len(maxes))]
				line := fmt.Sprintf("c%d", step)
				op = fmt.Sprintf("AppendLineCapped(%s, %d)", line, max)
				if err := fs.AppendLineCapped(p, line, max); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.append(line, max)
			case r < 72:
				line := fmt.Sprintf("a%d", step)
				op = "AppendLine(" + line + ")"
				if err := fs.AppendLine(p, line); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.append(line, 0)
			case r < 80:
				lines := make([]string, rng.Intn(12))
				for i := range lines {
					lines[i] = fmt.Sprintf("w%d.%d", step, i)
				}
				op = fmt.Sprintf("WriteLines(%d lines)", len(lines))
				if err := fs.WriteLines(p, lines); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.write(lines)
			case r < 86:
				op = "Touch"
				if err := fs.Touch(p); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.exists = true
				m.stamp++
				m.mtime = m.stamp
			case r < 93:
				op = "Remove"
				err := fs.Remove(p)
				if m.exists != (err == nil) {
					t.Fatalf("seed %d step %d Remove: err %v with file present=%v", seed, step, err, m.exists)
				}
				m.remove()
			case r < 97:
				dir := []string{"/", "/logs", "/logs/agent"}[rng.Intn(3)]
				op = "RemoveAll(" + dir + ")"
				if err := fs.RemoveAll(dir); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.remove()
			default:
				op = "read"
			}
			checkWindow(t, fs, p, &m, rng, fmt.Sprintf("seed %d step %d after %s", seed, step, op))
		}
	}
}

func checkWindow(t *testing.T, fs *FS, p string, m *windowModel, rng *rand.Rand, where string) {
	t.Helper()
	if got := fs.Exists(p); got != m.exists {
		t.Fatalf("%s: Exists = %v, model %v", where, got, m.exists)
	}
	if got := fs.MTime(p); got != m.mtime {
		t.Fatalf("%s: MTime = %d, model %d", where, got, m.mtime)
	}
	lines, err := fs.ReadLines(p)
	n, nerr := fs.LineCount(p)
	k := rng.Intn(25) - 2
	tail, terr := fs.TailLines(p, k)
	if !m.exists {
		for _, e := range []error{err, nerr, terr} {
			if !errors.Is(e, ErrNotExist) {
				t.Fatalf("%s: reading a missing file: %v, want ErrNotExist", where, e)
			}
		}
		return
	}
	if err != nil || nerr != nil || terr != nil {
		t.Fatalf("%s: read errors %v / %v / %v", where, err, nerr, terr)
	}
	if !sameLines(lines, m.lines) {
		t.Fatalf("%s: ReadLines = %v, model %v", where, lines, m.lines)
	}
	if n != len(m.lines) {
		t.Fatalf("%s: LineCount = %d, model %d", where, n, len(m.lines))
	}
	want := m.lines[len(m.lines)-min(max(k, 0), len(m.lines)):]
	if !sameLines(tail, want) {
		t.Fatalf("%s: TailLines(%d) = %v, model %v", where, k, tail, want)
	}
}

// sameLines compares line slices, treating nil and empty as equal.
func sameLines(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestCircLogWindowSlackBounded: once a capped log has run for a while its
// backing array holds at most twice the max+max/4+1 compaction target, and
// the dropped slots before the window are cleared.
func TestCircLogWindowSlackBounded(t *testing.T) {
	for _, max := range []int{1, 2, 7, 50, 500, 1000} {
		v := NewVolume()
		for i := 0; i < 5*max+10; i++ {
			if err := v.AppendLineCapped("/l", fmt.Sprintf("%d", i), max); err != nil {
				t.Fatal(err)
			}
		}
		f := v.files["/l"]
		if got := len(f.lines()); got != max {
			t.Errorf("max=%d: %d live lines", max, got)
		}
		if want := max + max/4 + 1; cap(f.buf) > 2*want {
			t.Errorf("max=%d: backing array cap %d, want <= %d", max, cap(f.buf), 2*want)
		}
		for i, s := range f.buf[:f.head] {
			if s != "" {
				t.Fatalf("max=%d: dropped slot %d still holds %q", max, i, s)
			}
		}
	}
}

// TestCappedAppendSteadyStateAllocs: once the window has settled, a capped
// append allocates nothing, through the FS, the Volume and CircLog alike.
func TestCappedAppendSteadyStateAllocs(t *testing.T) {
	const max = 500
	fs := NewFS()
	cl, err := NewCircLog(fs, "/logs/perf/cpu.log", max)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVolume()
	for i := 0; i < 4*max; i++ {
		_ = cl.Append("warm")
		_ = v.AppendLineCapped("/l", "warm", max)
	}
	if a := testing.AllocsPerRun(3*max, func() { _ = cl.Append("line") }); a != 0 {
		t.Errorf("CircLog.Append: %v allocs/op in steady state, want 0", a)
	}
	if a := testing.AllocsPerRun(3*max, func() { _ = v.AppendLineCapped("/l", "line", max) }); a != 0 {
		t.Errorf("Volume.AppendLineCapped: %v allocs/op in steady state, want 0", a)
	}
}

// TestExistingFileFastPathInvariants: skipping the directory checks for
// files that already exist must not let a write land where the slow path
// would refuse it, and creation after a subtree removal must rebuild the
// parents.
func TestExistingFileFastPathInvariants(t *testing.T) {
	fs := NewFS()
	if err := fs.AppendLine("/d/sub/f", "x"); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/d", "/d/sub"} {
		if err := fs.WriteLines(dir, nil); !errors.Is(err, ErrIsDir) {
			t.Errorf("WriteLines(%s) = %v, want ErrIsDir", dir, err)
		}
		if err := fs.AppendLineCapped(dir, "x", 3); !errors.Is(err, ErrIsDir) {
			t.Errorf("AppendLineCapped(%s) = %v, want ErrIsDir", dir, err)
		}
		if err := fs.Touch(dir); !errors.Is(err, ErrIsDir) {
			t.Errorf("Touch(%s) = %v, want ErrIsDir", dir, err)
		}
	}
	for _, below := range []string{"/d/sub/f/g", "/d/sub/f/g/h"} {
		if err := fs.AppendLine(below, "x"); !errors.Is(err, ErrNotDir) {
			t.Errorf("AppendLine(%s) = %v, want ErrNotDir", below, err)
		}
	}
	// A refused write creates no directories on its way up.
	v, _ := fs.resolve("/")
	if v.dirs["/d/sub/f/g"] {
		t.Error("failed write below a file left directory /d/sub/f/g behind")
	}

	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendLineCapped("/d/sub/f", "again", 3); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/d", "/d/sub"} {
		if !v.dirs[dir] {
			t.Errorf("write after RemoveAll(/d) did not recreate %s", dir)
		}
		if err := fs.WriteLines(dir, nil); !errors.Is(err, ErrIsDir) {
			t.Errorf("WriteLines(%s) after recreate = %v, want ErrIsDir", dir, err)
		}
	}
	if got, _ := fs.ReadLines("/d/sub/f"); !reflect.DeepEqual(got, []string{"again"}) {
		t.Errorf("recreated file = %v, want [again]", got)
	}
}

// TestRemoveAllTable pins RemoveAll on the root, on a subtree and on a
// single file.
func TestRemoveAllTable(t *testing.T) {
	files := []string{"/a", "/d/x", "/d/sub/y", "/dd/z"}
	cases := []struct {
		target  string
		survive []string
		dirs    []string // directories that must remain
		gone    []string // directories that must be removed
	}{
		{target: "/", dirs: []string{"/"}, gone: []string{"/d", "/d/sub", "/dd"}},
		{target: "//", dirs: []string{"/"}, gone: []string{"/d", "/dd"}},
		{target: "/d", survive: []string{"/a", "/dd/z"}, dirs: []string{"/", "/dd"}, gone: []string{"/d", "/d/sub"}},
		{target: "/d/sub", survive: []string{"/a", "/d/x", "/dd/z"}, dirs: []string{"/", "/d", "/dd"}, gone: []string{"/d/sub"}},
		{target: "/a", survive: []string{"/d/x", "/d/sub/y", "/dd/z"}, dirs: []string{"/", "/d", "/d/sub", "/dd"}},
	}
	for _, c := range cases {
		t.Run(c.target, func(t *testing.T) {
			v := NewVolume()
			for _, f := range files {
				if err := v.WriteLines(f, []string{f}); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.RemoveAll(c.target); err != nil {
				t.Fatal(err)
			}
			if got := v.FileCount(); got != len(c.survive) {
				t.Errorf("%d files left, want %d", got, len(c.survive))
			}
			for _, f := range c.survive {
				if !v.Exists(f) {
					t.Errorf("%s removed", f)
				}
			}
			for _, d := range c.dirs {
				if !v.dirs[d] {
					t.Errorf("directory %s removed", d)
				}
			}
			for _, d := range c.gone {
				if v.dirs[d] {
					t.Errorf("directory %s survived", d)
				}
			}
			if err := v.WriteLines("/new/file", nil); err != nil {
				t.Errorf("write after RemoveAll(%s): %v", c.target, err)
			}
		})
	}
}

// TestTouchSingleStep: Touch creates an empty file, then only advances the
// stamp of an existing one, keeping its content; it refuses directories
// and read-only volumes like every other write.
func TestTouchSingleStep(t *testing.T) {
	v := NewVolume()
	if err := v.Touch("/flags/ok.flag"); err != nil {
		t.Fatal(err)
	}
	if n, err := v.LineCount("/flags/ok.flag"); err != nil || n != 0 {
		t.Errorf("touched new file: %d lines, err %v", n, err)
	}
	if err := v.WriteLines("/log", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	before := v.MTime("/log")
	if err := v.Touch("/log"); err != nil {
		t.Fatal(err)
	}
	if after := v.MTime("/log"); after != before+1 {
		t.Errorf("Touch moved mtime %d -> %d, want +1", before, after)
	}
	if got, _ := v.ReadLines("/log"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Touch changed content: %v", got)
	}
	if err := v.Touch("/flags"); !errors.Is(err, ErrIsDir) {
		t.Errorf("Touch(dir) = %v, want ErrIsDir", err)
	}
	if err := v.Touch("/log/child"); !errors.Is(err, ErrNotDir) {
		t.Errorf("Touch below a file = %v, want ErrNotDir", err)
	}
	v.SetReadOnly(true)
	stamp := v.MTime("/log")
	for _, p := range []string{"/log", "/missing"} {
		if err := v.Touch(p); !errors.Is(err, ErrReadOnly) {
			t.Errorf("read-only Touch(%s) = %v, want ErrReadOnly", p, err)
		}
	}
	if v.MTime("/log") != stamp || v.Exists("/missing") {
		t.Error("read-only Touch changed the volume")
	}
}

// TestConcurrentAppendTouch: Touch is one locked step, so appends racing
// it on the same file are never lost.
func TestConcurrentAppendTouch(t *testing.T) {
	const writers, appends = 4, 300
	v := NewVolume()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if err := v.AppendLine("/log", "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*appends; i++ {
			if err := v.Touch("/log"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n, err := v.LineCount("/log"); err != nil || n != writers*appends {
		t.Errorf("LineCount = %d (err %v), want %d", n, err, writers*appends)
	}
}

// BenchmarkCircLogAppend measures a steady-state append to a full circular
// log. The window makes its cost independent of the cap, so ns/op should
// stay flat from max=50 to max=5000.
func BenchmarkCircLogAppend(b *testing.B) {
	for _, max := range []int{50, 500, 5000} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			cl, err := NewCircLog(NewFS(), "/logs/intelliagents/cpu/activity.log", max)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3*max; i++ {
				_ = cl.Append("warm")
			}
			b.ReportAllocs()
			for b.Loop() {
				_ = cl.Append("run ok, no findings")
			}
		})
	}
}

// TestAlreadyCleanMatchesPathClean: the single-pass check agrees with
// path.Clean on every rooted path over a small alphabet that can spell
// empty, "." and ".." segments anywhere.
func TestAlreadyCleanMatchesPathClean(t *testing.T) {
	const alphabet = "/.a"
	var walk func(p string)
	walk = func(p string) {
		want := len(p) > 0 && p[0] == '/' && path.Clean(p) == p
		if got := alreadyClean(p); got != want {
			t.Errorf("alreadyClean(%q) = %v, want %v", p, got, want)
		}
		if len(p) == 7 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(p + alphabet[i:i+1])
		}
	}
	walk("")
}
