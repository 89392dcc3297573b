package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiffBenchNameSets: a benchmark dropped from NEW fails the gate
// unless it is retired, one added in NEW passes with no baseline, and a
// zero-alloc baseline gates any allocation.
func TestDiffBenchNameSets(t *testing.T) {
	old := writeBench(t, "old.txt", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   0 B/op   0 allocs/op
BenchmarkGone-2   2   50 ns/op   0 B/op   0 allocs/op
BenchmarkAgentDayShards-2   2   100000000 ns/op   10 B/op   5 allocs/op
`)
	cases := []struct {
		name, body string
		want       []string // substrings, one per expected regression
	}{
		{"same set", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   0 B/op   0 allocs/op
BenchmarkGone-2   2   50 ns/op   0 B/op   0 allocs/op
BenchmarkAgentDayShards-2   2   100000000 ns/op   10 B/op   5 allocs/op
`, nil},
		{"renamed", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   0 B/op   0 allocs/op
BenchmarkRenamed-2   2   50 ns/op   0 B/op   0 allocs/op
`, []string{"BenchmarkGone: in"}},
		{"retired and unlisted both missing", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   0 B/op   0 allocs/op
`, []string{"BenchmarkGone: in"}},
		{"retired missing", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   0 B/op   0 allocs/op
BenchmarkGone-2   2   50 ns/op   0 B/op   0 allocs/op
`, nil},
		{"new allocation off zero", `
BenchmarkAgentDay-2   2   100000000 ns/op   10 B/op   5 allocs/op
BenchmarkCircLogAppend/max=50-2   1000   100 ns/op   16 B/op   1 allocs/op
BenchmarkGone-2   2   50 ns/op   0 B/op   0 allocs/op
`, []string{"BenchmarkCircLogAppend/max=50: 0 → 1 allocs/op"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			regs, err := diffBench(old, writeBench(t, "new.txt", c.body), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) != len(c.want) {
				t.Fatalf("regressions %q, want %d", regs, len(c.want))
			}
			for i, w := range c.want {
				if !strings.Contains(regs[i], w) {
					t.Errorf("regression %q, want it to mention %q", regs[i], w)
				}
			}
		})
	}
}
