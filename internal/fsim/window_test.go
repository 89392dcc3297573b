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
// plain slice, trimmed by re-slicing a copy.
type windowModel struct {
	exists bool
	lines  []string
}

func (m *windowModel) write(lines []string) {
	m.exists = true
	m.lines = append([]string(nil), lines...)
}

func (m *windowModel) append(line string, max int) {
	m.exists = true
	m.lines = append(append([]string(nil), m.lines...), line)
	if max > 0 && len(m.lines) > max {
		m.lines = m.lines[len(m.lines)-max:]
	}
}

func (m *windowModel) remove() {
	m.exists = false
	m.lines = nil
}

// TestWindowMatchesModel interleaves every operation that touches a file's
// line window — appends with varying caps (0: none), rewrites and removes
// — on one path, and checks the file against the naive model after every
// step.
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
			case r < 72:
				max := maxes[rng.Intn(len(maxes))]
				line := fmt.Sprintf("c%d", step)
				op = fmt.Sprintf("AppendLineCapped(%s, %d)", line, max)
				if err := fs.AppendLineCapped(p, line, max); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.append(line, max)
			case r < 82:
				lines := make([]string, rng.Intn(12))
				for i := range lines {
					lines[i] = fmt.Sprintf("w%d.%d", step, i)
				}
				op = fmt.Sprintf("WriteLines(%d lines)", len(lines))
				if err := fs.WriteLines(p, lines); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
				}
				m.write(lines)
			case r < 93:
				op = "Remove"
				err := fs.Remove(p)
				if m.exists != (err == nil) {
					t.Fatalf("seed %d step %d Remove: err %v with file present=%v", seed, step, err, m.exists)
				}
				m.remove()
			default:
				op = "read"
			}
			checkWindow(t, fs, p, &m, fmt.Sprintf("seed %d step %d after %s", seed, step, op))
		}
	}
}

func checkWindow(t *testing.T, fs *FS, p string, m *windowModel, where string) {
	t.Helper()
	if got := fs.Exists(p); got != m.exists {
		t.Fatalf("%s: Exists = %v, model %v", where, got, m.exists)
	}
	lines, err := fs.ReadLines(p)
	if !m.exists {
		if !errors.Is(err, ErrNotExist) {
			t.Fatalf("%s: reading a missing file: %v, want ErrNotExist", where, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: read error %v", where, err)
	}
	if !sameLines(lines, m.lines) {
		t.Fatalf("%s: ReadLines = %v, model %v", where, lines, m.lines)
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
		fs := NewFS()
		for i := 0; i < 5*max+10; i++ {
			if err := fs.AppendLineCapped("/l", fmt.Sprintf("%d", i), max); err != nil {
				t.Fatal(err)
			}
		}
		f := fs.root.nodes["/l"]
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
// append allocates nothing, through the FS and CircLog alike.
func TestCappedAppendSteadyStateAllocs(t *testing.T) {
	const max = 500
	fs := NewFS()
	cl, err := NewCircLog(fs, "/logs/perf/cpu.log", max)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*max; i++ {
		_ = cl.Append("warm")
		_ = fs.AppendLineCapped("/l", "warm", max)
	}
	if a := testing.AllocsPerRun(3*max, func() { _ = cl.Append("line") }); a != 0 {
		t.Errorf("CircLog.Append: %v allocs/op in steady state, want 0", a)
	}
	if a := testing.AllocsPerRun(3*max, func() { _ = fs.AppendLineCapped("/l", "line", max) }); a != 0 {
		t.Errorf("FS.AppendLineCapped: %v allocs/op in steady state, want 0", a)
	}
}

// TestExistingFileFastPathInvariants: skipping the directory checks for
// files that already exist must not let a write land where the slow path
// would refuse it, and creation after a Reset must rebuild the parents.
func TestExistingFileFastPathInvariants(t *testing.T) {
	fs := NewFS()
	if err := fs.AppendLineCapped("/d/sub/f", "x", 0); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/d", "/d/sub"} {
		if err := fs.WriteLines(dir, nil); !errors.Is(err, ErrIsDir) {
			t.Errorf("WriteLines(%s) = %v, want ErrIsDir", dir, err)
		}
		if err := fs.AppendLineCapped(dir, "x", 3); !errors.Is(err, ErrIsDir) {
			t.Errorf("AppendLineCapped(%s) = %v, want ErrIsDir", dir, err)
		}
	}
	for _, below := range []string{"/d/sub/f/g", "/d/sub/f/g/h"} {
		if err := fs.AppendLineCapped(below, "x", 0); !errors.Is(err, ErrNotDir) {
			t.Errorf("AppendLineCapped(%s) = %v, want ErrNotDir", below, err)
		}
	}
	// A refused write creates no directories on its way up.
	v, _ := fs.resolve("/")
	isDir := func(p string) bool { return v.nodes[p] != nil && v.nodes[p].dir }
	if isDir("/d/sub/f/g") {
		t.Error("failed write below a file left directory /d/sub/f/g behind")
	}

	fs.Reset()
	if err := fs.AppendLineCapped("/d/sub/f", "again", 3); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/d", "/d/sub"} {
		if !isDir(dir) {
			t.Errorf("write after Reset did not recreate %s", dir)
		}
		if err := fs.WriteLines(dir, nil); !errors.Is(err, ErrIsDir) {
			t.Errorf("WriteLines(%s) after recreate = %v, want ErrIsDir", dir, err)
		}
	}
	if got, _ := fs.ReadLines("/d/sub/f"); !reflect.DeepEqual(got, []string{"again"}) {
		t.Errorf("recreated file = %v, want [again]", got)
	}
}

// TestConcurrentAppendTouch holds the phase rule that stands in for a
// volume lock. Each round runs a serial write phase — a capped append to a
// log, and a flag written or removed, alternating handles and path calls —
// then a read phase in which several goroutines read the log, the flag and
// their directory at once, through handles opened earlier and by path,
// while nothing writes. Every reader must see exactly what the write phase
// left, on the private root and through a mount alike. Under -race, a read
// that writes (one that compacted the log's window, say) or a write that
// overlapped the readers is a reported race; CI runs it that way, ten
// times.
func TestConcurrentAppendTouch(t *testing.T) {
	const readers, rounds, max = 4, 120, 50
	fs := NewFS()
	fs.Mount("/nfs/pool", NewVolume())
	for _, dir := range []string{"/logs/intelliagents/cpu", "/nfs/pool/agents/cpu"} {
		logPath, flagPath := dir+"/activity.log", dir+"/ok.flag"
		log, flag, flags := fs.Open(logPath), fs.Open(flagPath), fs.OpenDir(dir)
		var want []string
		for round := 0; round < rounds; round++ {
			line := fmt.Sprintf("run %d", round)
			var err error
			if round%2 == 0 {
				err = log.AppendLineCapped(line, max)
			} else {
				err = fs.AppendLineCapped(logPath, line, max)
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, line)
			if len(want) > max {
				want = want[1:]
			}
			switch round % 4 {
			case 0:
				err = flag.WriteLines(nil)
			case 1:
				err = fs.Remove(flagPath)
			case 2:
				err = fs.WriteLines(flagPath, nil)
			case 3:
				err = flag.Remove()
			}
			if err != nil {
				t.Fatal(err)
			}
			flagged := round%4 == 0 || round%4 == 2
			wantNames := []string{"activity.log"}
			if flagged {
				wantNames = append(wantNames, "ok.flag")
			}

			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					byHandle, err1 := log.ReadLines()
					byPath, err2 := fs.ReadLines(logPath)
					if err1 != nil || err2 != nil || !sameLines(byHandle, want) || !sameLines(byPath, want) {
						t.Errorf("%s round %d: log read %d lines by handle (err %v), %d by path (err %v), want %d",
							dir, round, len(byHandle), err1, len(byPath), err2, len(want))
					}
					if !log.Exists() || !fs.Exists(logPath) {
						t.Errorf("%s round %d: log missing", dir, round)
					}
					if flag.Exists() != flagged || fs.Exists(flagPath) != flagged ||
						flags.HasFileWithSuffix(".flag") != flagged || fs.HasFileWithSuffix(dir, ".flag") != flagged {
						t.Errorf("%s round %d: flag present disagrees with %v", dir, round, flagged)
					}
					if names, err := fs.List(dir); err != nil || !reflect.DeepEqual(names, wantNames) {
						t.Errorf("%s round %d: List = %v (err %v), want %v", dir, round, names, err, wantNames)
					}
				}()
			}
			wg.Wait()
		}
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
