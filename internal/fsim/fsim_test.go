package fsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// exists reports whether a file exists at p, by a read that adds no slot
// to the volume (FS.Open adds one).
func exists(fs *FS, p string) bool {
	_, err := fs.ReadLines(p)
	return err == nil
}

// view returns a namespace with v mounted at /v, for looking at a volume
// from outside the namespace that wrote it.
func view(v *Volume) *FS {
	fs := NewFS()
	fs.Mount("/v", v)
	return fs
}

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
	fs.Open("/log").AppendLineCapped("one", 0)
	fs.Open("/log").AppendLineCapped("two", 0)
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
	if exists(fs, "/f") {
		t.Error("file should be gone")
	}
	if err := fs.Remove("/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove: want ErrNotExist, got %v", err)
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
	if exists(admin2, "/private") {
		t.Error("private file leaked across namespaces")
	}
}

func TestLongestPrefixMount(t *testing.T) {
	outer, inner := NewVolume(), NewVolume()
	fs := NewFS()
	fs.Mount("/m", outer)
	fs.Mount("/m/deep", inner)
	fs.WriteLines("/m/deep/f", []string{"inner"})
	fs.WriteLines("/m/f", []string{"outer"})
	if !exists(view(inner), "/v/f") {
		t.Error("inner mount should receive /m/deep/f")
	}
	if !exists(view(outer), "/v/f") {
		t.Error("outer mount should receive /m/f")
	}
	if exists(view(outer), "/v/deep/f") {
		t.Error("outer mount must not shadow inner")
	}
}

func TestPathCleaning(t *testing.T) {
	fs := NewFS()
	fs.WriteLines("relative/path", []string{"x"})
	if !exists(fs, "/relative/path") {
		t.Error("relative paths should be rooted")
	}
	fs.WriteLines("/a//b/../c", []string{"y"})
	if !exists(fs, "/a/c") {
		t.Error("paths should be cleaned")
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
