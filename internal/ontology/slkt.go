package ontology

import (
	"fmt"

	"repro/internal/simclock"
)

// SLKTApp describes one application the server should run: its external
// and internal dependencies and requirements — file systems, path names,
// startup sequences, binary location, type, version, name, port, process
// names and numbers (§3.1c).
type SLKTApp struct {
	Name       string
	Kind       string
	Version    string
	Port       int
	BinaryPath string
	TimeoutSec int      // specialist-provided connectivity timeout
	StartupSeq []string // component process names in start order
	ProcCounts map[string]int
	DependsOn  []string
}

// Timeout converts the stored timeout to simulated time.
func (a SLKTApp) Timeout() simclock.Time {
	return simclock.Time(a.TimeoutSec) * simclock.Second
}

// SLKT is a static local knowledge template: what the server should be like
// hardware-wise and which applications it should run.
type SLKT struct {
	Server   string
	Model    string
	CPUs     int
	MemoryMB int
	Apps     []SLKTApp
}

// App finds the template for an application by name, or nil.
func (t *SLKT) App(name string) *SLKTApp {
	for i := range t.Apps {
		if t.Apps[i].Name == name {
			return &t.Apps[i]
		}
	}
	return nil
}

// ExpectedProcs reports the total process count of app when healthy.
func (a SLKTApp) ExpectedProcs() int {
	n := 0
	for _, c := range a.ProcCounts {
		n += c
	}
	return n
}

// Encode renders the template:
//
//	hw|server|model|cpus|memMB
//	app|name|kind|version|port|binpath|timeout_s
//	seq|appname|proc1,proc2,...
//	proc|appname|procname|count
//	dep|appname|depname
func (t *SLKT) Encode() []string {
	lines := []string{
		"# SLKT static local knowledge template for " + t.Server,
		joinRecord("hw", escape(t.Server), escape(t.Model), itoa(t.CPUs), itoa(t.MemoryMB)),
	}
	for _, a := range t.Apps {
		lines = append(lines, joinRecord("app", escape(a.Name), escape(a.Kind), escape(a.Version),
			itoa(a.Port), escape(a.BinaryPath), itoa(a.TimeoutSec)))
		if len(a.StartupSeq) > 0 {
			seq := make([]string, len(a.StartupSeq))
			for i, p := range a.StartupSeq {
				seq[i] = escape(p)
			}
			lines = append(lines, joinRecord("seq", escape(a.Name), joinComma(seq)))
		}
		for _, p := range a.StartupSeq {
			if c, ok := a.ProcCounts[p]; ok {
				lines = append(lines, joinRecord("proc", escape(a.Name), escape(p), itoa(c)))
			}
		}
		for _, d := range a.DependsOn {
			lines = append(lines, joinRecord("dep", escape(a.Name), escape(d)))
		}
	}
	return lines
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// DecodeSLKT parses lines produced by Encode.
func DecodeSLKT(lines []string) (*SLKT, error) {
	t := &SLKT{}
	appIdx := map[string]int{}
	var f [maxFields]string
	for i, line := range lines {
		if isComment(line) {
			continue
		}
		n := splitRecord(line, &f)
		switch f[0] {
		case "hw":
			if n != 5 {
				return nil, fmt.Errorf("ontology: SLKT line %d: hw wants 5 fields", i+1)
			}
			t.Server = unescape(f[1])
			t.Model = unescape(f[2])
			var err error
			if t.CPUs, err = parseInt(f[3], "cpus"); err != nil {
				return nil, err
			}
			if t.MemoryMB, err = parseInt(f[4], "memMB"); err != nil {
				return nil, err
			}
		case "app":
			if n != 7 {
				return nil, fmt.Errorf("ontology: SLKT line %d: app wants 7 fields", i+1)
			}
			port, err := parseInt(f[4], "port")
			if err != nil {
				return nil, err
			}
			tmo, err := parseInt(f[6], "timeout")
			if err != nil {
				return nil, err
			}
			a := SLKTApp{
				Name: unescape(f[1]), Kind: unescape(f[2]), Version: unescape(f[3]),
				Port: port, BinaryPath: unescape(f[5]), TimeoutSec: tmo,
				ProcCounts: map[string]int{},
			}
			appIdx[a.Name] = len(t.Apps)
			t.Apps = append(t.Apps, a)
		case "seq":
			if n != 3 {
				return nil, fmt.Errorf("ontology: SLKT line %d: seq wants 3 fields", i+1)
			}
			idx, ok := appIdx[unescape(f[1])]
			if !ok {
				return nil, fmt.Errorf("ontology: SLKT line %d: seq for unknown app %s", i+1, f[1])
			}
			for _, p := range splitComma(f[2]) {
				t.Apps[idx].StartupSeq = append(t.Apps[idx].StartupSeq, unescape(p))
			}
		case "proc":
			if n != 4 {
				return nil, fmt.Errorf("ontology: SLKT line %d: proc wants 4 fields", i+1)
			}
			idx, ok := appIdx[unescape(f[1])]
			if !ok {
				return nil, fmt.Errorf("ontology: SLKT line %d: proc for unknown app %s", i+1, f[1])
			}
			c, err := parseInt(f[3], "proc count")
			if err != nil {
				return nil, err
			}
			t.Apps[idx].ProcCounts[unescape(f[2])] = c
		case "dep":
			if n != 3 {
				return nil, fmt.Errorf("ontology: SLKT line %d: dep wants 3 fields", i+1)
			}
			idx, ok := appIdx[unescape(f[1])]
			if !ok {
				return nil, fmt.Errorf("ontology: SLKT line %d: dep for unknown app %s", i+1, f[1])
			}
			t.Apps[idx].DependsOn = append(t.Apps[idx].DependsOn, unescape(f[2]))
		default:
			return nil, fmt.Errorf("ontology: SLKT line %d: unknown record %q", i+1, f[0])
		}
	}
	if t.Server == "" {
		return nil, fmt.Errorf("ontology: SLKT missing hw record")
	}
	return t, nil
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var parts []string
	var cur []byte
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			cur = append(cur, s[i], s[i+1])
			i++
			continue
		}
		if s[i] == ',' {
			parts = append(parts, string(cur))
			cur = cur[:0]
			continue
		}
		cur = append(cur, s[i])
	}
	parts = append(parts, string(cur))
	return parts
}
