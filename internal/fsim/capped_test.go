package fsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestAppendLineCappedMatchesReference drives AppendLineCapped alongside
// the read-append-trim-rewrite sequence it replaces and requires identical
// file contents after every step, across several cap sizes.
func TestAppendLineCappedMatchesReference(t *testing.T) {
	for _, max := range []int{1, 2, 5, 50} {
		fast := NewFS()
		ref := NewFS()
		path := "/logs/x/c.log"
		for i := 0; i < 3*max+7; i++ {
			line := fmt.Sprintf("line-%d", i)
			if err := fast.AppendLineCapped(path, line, max); err != nil {
				t.Fatal(err)
			}
			lines, err := ref.ReadLines(path)
			if err != nil {
				lines = nil
			}
			lines = append(lines, line)
			if len(lines) > max {
				lines = lines[len(lines)-max:]
			}
			if err := ref.WriteLines(path, lines); err != nil {
				t.Fatal(err)
			}
			got, _ := fast.ReadLines(path)
			want, _ := ref.ReadLines(path)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("max=%d step=%d: capped=%v reference=%v", max, i, got, want)
			}
		}
	}
}

// TestAppendLineCappedErrors pins the error surface shared with
// WriteLines: a directory or a path below a file cannot be appended to.
func TestAppendLineCappedErrors(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteLines("/d/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendLineCapped("/d", "x", 5); !errors.Is(err, ErrIsDir) {
		t.Errorf("appending to a directory = %v, want ErrIsDir", err)
	}
	if err := fs.AppendLineCapped("/d/f/g", "x", 5); !errors.Is(err, ErrNotDir) {
		t.Errorf("appending below a file = %v, want ErrNotDir", err)
	}
}

// TestRemoveRecyclingIsolation: a removed file keeps its slot and line
// array, which its re-creation reuses; no content or aliasing may leak
// from the removed file into the new one, or into a copy read earlier.
func TestRemoveRecyclingIsolation(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteLines("/a", []string{"old-1", "old-2"}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("/a still exists after Remove")
	}
	if err := fs.AppendLineCapped("/a", "new", 5); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadLines("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"new"}) {
		t.Errorf("re-created file leaked content: %v", got)
	}
	// Overwrites reuse the line array; a caller's previously read copy
	// must be unaffected.
	if err := fs.WriteLines("/a", []string{"newer", "lines"}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"new"}) {
		t.Errorf("ReadLines result aliased live file storage: %v", got)
	}
}

// TestVolumeAndFSReset: Reset returns the namespace to its initial state
// while later writes still work.
func TestVolumeAndFSReset(t *testing.T) {
	fs := NewFS()
	shared := NewVolume()
	fs.Mount("/nfs/pool", shared)
	_ = fs.WriteLines("/local", []string{"x"})
	_ = fs.WriteLines("/nfs/pool/shared", []string{"y"})
	fs.Reset()
	if fs.Exists("/local") {
		t.Error("local file survived FS.Reset")
	}
	if fs.Exists("/nfs/pool/shared") {
		t.Error("mount survived FS.Reset (path still resolves to the shared volume)")
	}
	if !view(shared).Exists("/v/shared") {
		t.Error("FS.Reset wiped a shared volume it does not own")
	}
	if err := fs.WriteLines("/again", nil); err != nil {
		t.Fatalf("write after Reset: %v", err)
	}
	shared.Reset()
	if view(shared).Exists("/v/shared") || len(shared.nodes) != 1 {
		t.Error("Volume.Reset left files behind")
	}
}
