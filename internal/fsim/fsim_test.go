package fsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteLines("/etc/hosts", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	lines, err := fs.ReadLines("/etc/hosts")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "a" || lines[1] != "b" {
		t.Errorf("ReadLines = %v", lines)
	}
}

func TestReadMissing(t *testing.T) {
	fs := NewFS()
	if _, err := fs.ReadLines("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("want ErrNotExist, got %v", err)
	}
}

func TestReadIsolatedCopy(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/f", []string{"x"})
	lines, _ := fs.ReadLines("/f")
	lines[0] = "mutated"
	again, _ := fs.ReadLines("/f")
	if again[0] != "x" {
		t.Error("ReadLines must return a copy")
	}
}

func TestAppendLine(t *testing.T) {
	fs := NewFS()
	fs.AppendLine("/log", "one")
	fs.AppendLine("/log", "two")
	lines, _ := fs.ReadLines("/log")
	if len(lines) != 2 || lines[1] != "two" {
		t.Errorf("append result: %v", lines)
	}
}

func TestRemove(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/f", nil)
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Error("file should be gone")
	}
	if err := fs.Remove("/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove: want ErrNotExist, got %v", err)
	}
}

func TestTouchAndExists(t *testing.T) {
	fs := NewFS()
	if fs.Exists("/flag") {
		t.Error("flag should not exist yet")
	}
	fs.Touch("/flag")
	if !fs.Exists("/flag") {
		t.Error("flag should exist after touch")
	}
	lines, _ := fs.ReadLines("/flag")
	if len(lines) != 0 {
		t.Errorf("touched file should be empty, got %v", lines)
	}
}

func TestMTimeAdvances(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/a", nil)
	m1 := fs.MTime("/a")
	fs.Touch("/a")
	m2 := fs.MTime("/a")
	if m2 <= m1 {
		t.Errorf("mtime should advance: %d -> %d", m1, m2)
	}
	if fs.MTime("/missing") != 0 {
		t.Error("missing file mtime should be 0")
	}
}

func TestList(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/logs/agents/cpu.flag", nil)
	fs.WriteLines("/logs/agents/mem.flag", nil)
	fs.WriteLines("/logs/agents/sub/deep.flag", nil)
	names, err := fs.List("/logs/agents")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "cpu.flag" || names[1] != "mem.flag" {
		t.Errorf("List = %v", names)
	}
	if _, err := fs.List("/nothing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing dir: got %v", err)
	}
}

func TestMkdirList(t *testing.T) {
	fs := NewFS()
	if err := fs.Mkdir("/empty/dir"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("/empty/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("empty dir list = %v", names)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/d/a", nil)
	fs.WriteLines("/d/sub/b", nil)
	fs.WriteLines("/other", nil)
	fs.RemoveAll("/d")
	if fs.Exists("/d/a") || fs.Exists("/d/sub/b") {
		t.Error("subtree should be gone")
	}
	if !fs.Exists("/other") {
		t.Error("unrelated file removed")
	}
}

func TestWriteToDirFails(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/dir/file", nil)
	if err := fs.WriteLines("/dir", nil); !errors.Is(err, ErrIsDir) {
		t.Errorf("want ErrIsDir, got %v", err)
	}
}

func TestFileAsDirComponentFails(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("/f", nil)
	if err := fs.WriteLines("/f/child", nil); !errors.Is(err, ErrNotDir) {
		t.Errorf("want ErrNotDir, got %v", err)
	}
}

func TestNFSMountSharing(t *testing.T) {
	pool := NewVolume()
	admin1, admin2 := NewFS(), NewFS()
	admin1.Mount("/nfs/pool", pool)
	admin2.Mount("/nfs/pool", pool)
	if err := admin1.WriteLines("/nfs/pool/dgspl.txt", []string{"svc"}); err != nil {
		t.Fatal(err)
	}
	lines, err := admin2.ReadLines("/nfs/pool/dgspl.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != "svc" {
		t.Errorf("shared read = %v", lines)
	}
	// Private roots stay private.
	admin1.WriteLines("/private", nil)
	if admin2.Exists("/private") {
		t.Error("private file leaked across namespaces")
	}
}

func TestUnmount(t *testing.T) {
	pool := NewVolume()
	fs := NewFS()
	fs.Mount("/mnt", pool)
	fs.WriteLines("/mnt/f", []string{"x"})
	if !fs.Unmount("/mnt") {
		t.Fatal("unmount failed")
	}
	if fs.Exists("/mnt/f") {
		t.Error("file should resolve to root volume after unmount")
	}
	if fs.Unmount("/mnt") {
		t.Error("second unmount should report false")
	}
	if !pool.Exists("/f") {
		t.Error("file should persist on the volume")
	}
}

func TestLongestPrefixMount(t *testing.T) {
	outer, inner := NewVolume(), NewVolume()
	fs := NewFS()
	fs.Mount("/m", outer)
	fs.Mount("/m/deep", inner)
	fs.WriteLines("/m/deep/f", []string{"inner"})
	fs.WriteLines("/m/f", []string{"outer"})
	if !inner.Exists("/f") {
		t.Error("inner mount should receive /m/deep/f")
	}
	if !outer.Exists("/f") {
		t.Error("outer mount should receive /m/f")
	}
	if outer.Exists("/deep/f") {
		t.Error("outer mount must not shadow inner")
	}
}

func TestReadOnlyVolume(t *testing.T) {
	v := NewVolume()
	v.WriteLines("/f", []string{"x"})
	v.SetReadOnly(true)
	if err := v.WriteLines("/g", nil); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write: want ErrReadOnly, got %v", err)
	}
	if err := v.AppendLine("/f", "y"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("append: want ErrReadOnly, got %v", err)
	}
	if err := v.Remove("/f"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("remove: want ErrReadOnly, got %v", err)
	}
	v.SetReadOnly(false)
	if err := v.WriteLines("/g", nil); err != nil {
		t.Errorf("write after re-enable: %v", err)
	}
}

func TestPathCleaning(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("relative/path", []string{"x"})
	if !fs.Exists("/relative/path") {
		t.Error("relative paths should be rooted")
	}
	fs.WriteLines("/a//b/../c", []string{"y"})
	if !fs.Exists("/a/c") {
		t.Error("paths should be cleaned")
	}
}

func TestFileCount(t *testing.T) {
	v := NewVolume()
	v.WriteLines("/a", nil)
	v.WriteLines("/b/c", nil)
	if v.FileCount() != 2 {
		t.Errorf("FileCount = %d", v.FileCount())
	}
}

func TestCircLogBasics(t *testing.T) {
	fs := NewFS()
	cl, err := NewCircLog(fs, "/logs/perf/cpu.log", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cl.Append(fmt.Sprintf("line%d", i))
	}
	lines := cl.Lines()
	if len(lines) != 3 {
		t.Fatalf("Len = %d, want 3", len(lines))
	}
	if lines[0] != "line2" || lines[2] != "line4" {
		t.Errorf("oldest lines should be evicted: %v", lines)
	}
	if cl.Len() != 3 || cl.Max() != 3 {
		t.Errorf("Len=%d Max=%d", cl.Len(), cl.Max())
	}
	tail := cl.Tail(2)
	if len(tail) != 2 || tail[1] != "line4" {
		t.Errorf("Tail = %v", tail)
	}
	if got := cl.Tail(10); len(got) != 3 {
		t.Errorf("Tail beyond length = %v", got)
	}
}

func TestCircLogBadMax(t *testing.T) {
	if _, err := NewCircLog(NewFS(), "/x", 0); err == nil {
		t.Error("max 0 should error")
	}
}

// Property: a circular log never exceeds its max and always keeps the
// newest entries in order.
func TestQuickCircLogBounded(t *testing.T) {
	f := func(n uint8, max8 uint8) bool {
		max := int(max8%20) + 1
		fs := NewFS()
		cl, err := NewCircLog(fs, "/l", max)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			cl.Append(fmt.Sprintf("%04d", i))
		}
		lines := cl.Lines()
		if len(lines) > max {
			return false
		}
		want := int(n) - len(lines)
		for i, l := range lines {
			if l != fmt.Sprintf("%04d", want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: write-then-read round-trips any line set that contains no
// newline characters (the codec is line-oriented).
func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		fs := NewFS()
		lines := make([]string, len(raw))
		for i, s := range raw {
			lines[i] = strings.ReplaceAll(s, "\n", " ")
		}
		if err := fs.WriteLines("/rt", lines); err != nil {
			return false
		}
		got, err := fs.ReadLines("/rt")
		if err != nil {
			return false
		}
		if len(got) != len(lines) {
			return false
		}
		for i := range got {
			if got[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// HasFileWithSuffix agrees with a scan of List, including at the root, on
// a mount, and for names that share a directory's prefix without lying
// under it.
func TestHasFileWithSuffixMatchesList(t *testing.T) {
	fs := NewFS()
	pool := NewVolume()
	fs.Mount("/nfs/pool", pool)
	for _, p := range []string{
		"/top.flag", "/logs/intelliagents/status-db001/ok.flag",
		"/logs/intelliagents/status-db001/activity.log",
		"/logs/intelliagents/status-db001x/fault.flag",
		"/logs/intelliagents/disk-db001/sub/deep.flag",
		"/nfs/pool/dgspl-oracle.txt", "/nfs/pool/agents/ok.flag",
	} {
		if err := fs.WriteLines(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"/", "/logs", "/logs/intelliagents/status-db001",
		"/logs/intelliagents/status-db001x", "/logs/intelliagents/status-db00",
		"/logs/intelliagents/disk-db001", "/nfs/pool", "/nfs/pool/agents", "/missing"} {
		for _, suffix := range []string{".flag", ".txt", ".log"} {
			names, _ := fs.List(dir)
			want := false
			for _, n := range names {
				want = want || strings.HasSuffix(n, suffix)
			}
			if got := fs.HasFileWithSuffix(dir, suffix); got != want {
				t.Errorf("HasFileWithSuffix(%q, %q) = %v, List gives %q", dir, suffix, got, names)
			}
		}
	}
}

// The flag-sweep probe allocates nothing, even for directory paths longer
// than the compiler's stack buffer for a concatenation.
func TestHasFileWithSuffixAllocs(t *testing.T) {
	fs := NewFS()
	v := NewVolume()
	dir := "/logs/intelliagents/performance-fe-webserver-017"
	for _, name := range []string{"ok.flag", "activity.log"} {
		_ = fs.WriteLines(dir+"/"+name, nil)
		_ = v.WriteLines(dir+"/"+name, nil)
	}
	_ = fs.WriteLines(dir+"x/other.flag", nil)
	if a := testing.AllocsPerRun(100, func() {
		if !fs.HasFileWithSuffix(dir, ".flag") || fs.HasFileWithSuffix(dir, ".txt") {
			t.Fatal("probe answered wrong")
		}
	}); a != 0 {
		t.Errorf("FS.HasFileWithSuffix: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { v.HasFileWithSuffix(dir, ".flag") }); a != 0 {
		t.Errorf("Volume.HasFileWithSuffix: %v allocs, want 0", a)
	}
}
