package ontology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/simclock"
)

// DLSPService is one service's status within a local profile.
type DLSPService struct {
	Name  string
	Kind  string
	State string // running/stopped/crashed/hung/degraded/starting
	Port  int
	Conns int
}

// DLSP is a dynamic local service profile, generated by each agent-
// controlled server at regular intervals: server hardware, software, load,
// capacity and services (§3.1b).
type DLSP struct {
	Server      string
	GeneratedAt simclock.Time
	Model       string
	OS          string
	CPUs        int
	MemoryMB    int
	CPUUtil     float64 // 0..1
	RunQueue    int
	MemUsedMB   float64
	Users       int
	Services    []DLSPService
}

// AppendText appends the profile's lines, joined by newlines with no
// trailing newline — the text a status agent stores and pushes — and
// returns the extended buffer:
//
//	# DLSP dynamic local service profile
//	prof|server|generated_ns|model|os|cpus|memMB
//	load|cpuutil|runq|memusedMB|users
//	svc|name|kind|state|port|conns
func (p *DLSP) AppendText(b []byte) []byte {
	b = append(b, "# DLSP dynamic local service profile\nprof"...)
	b = appendField(b, p.Server)
	b = appendInt(b, int64(p.GeneratedAt))
	b = appendField(b, p.Model)
	b = appendField(b, p.OS)
	b = appendInt(b, int64(p.CPUs))
	b = appendInt(b, int64(p.MemoryMB))
	b = append(b, "\nload"...)
	b = appendFloat(b, p.CPUUtil)
	b = appendInt(b, int64(p.RunQueue))
	b = appendFloat(b, p.MemUsedMB)
	b = appendInt(b, int64(p.Users))
	for i := range p.Services {
		s := &p.Services[i]
		b = append(b, "\nsvc"...)
		b = appendField(b, s.Name)
		b = appendField(b, s.Kind)
		b = appendField(b, s.State)
		b = appendInt(b, int64(s.Port))
		b = appendInt(b, int64(s.Conns))
	}
	return b
}

// DecodeDLSPTextInto parses the text AppendText renders — the wire form
// status agents push — into an existing profile: p is overwritten, its
// Services storage reused, and the decoded strings slice text wherever a
// field holds no escape. On error p holds a partial decode.
func DecodeDLSPTextInto(p *DLSP, text string) error {
	clear(p.Services)
	*p = DLSP{Services: p.Services[:0]}
	seenProf := false
	for i := 0; text != ""; i++ {
		line, rest, _ := strings.Cut(text, "\n")
		if err := decodeDLSPLine(p, line, i, &seenProf); err != nil {
			return err
		}
		text = rest
	}
	if !seenProf {
		return errNoProf
	}
	return nil
}

var errNoProf = errors.New("ontology: DLSP missing prof record")

// decodeDLSPLine folds one record line into p; i is the zero-based line
// index for error context.
func decodeDLSPLine(p *DLSP, line string, i int, seenProf *bool) error {
	if isComment(line) {
		return nil
	}
	var f [maxFields]string
	n := splitRecord(line, &f)
	switch f[0] {
	case "prof":
		if n != 7 {
			return fmt.Errorf("ontology: DLSP line %d: prof wants 7 fields", i+1)
		}
		p.Server = unescape(f[1])
		gen, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return fmt.Errorf("ontology: DLSP line %d: bad timestamp %q", i+1, f[2])
		}
		p.GeneratedAt = simclock.Time(gen)
		p.Model = unescape(f[3])
		p.OS = unescape(f[4])
		if p.CPUs, err = parseInt(f[5], "cpus"); err != nil {
			return err
		}
		if p.MemoryMB, err = parseInt(f[6], "memMB"); err != nil {
			return err
		}
		*seenProf = true
	case "load":
		if n != 5 {
			return fmt.Errorf("ontology: DLSP line %d: load wants 5 fields", i+1)
		}
		var err error
		if p.CPUUtil, err = parseFloat(f[1], "cpuutil"); err != nil {
			return err
		}
		if p.RunQueue, err = parseInt(f[2], "runq"); err != nil {
			return err
		}
		if p.MemUsedMB, err = parseFloat(f[3], "memused"); err != nil {
			return err
		}
		if p.Users, err = parseInt(f[4], "users"); err != nil {
			return err
		}
	case "svc":
		if n != 6 {
			return fmt.Errorf("ontology: DLSP line %d: svc wants 6 fields", i+1)
		}
		port, err := parseInt(f[4], "port")
		if err != nil {
			return err
		}
		conns, err := parseInt(f[5], "conns")
		if err != nil {
			return err
		}
		p.Services = append(p.Services, DLSPService{
			Name: unescape(f[1]), Kind: unescape(f[2]), State: unescape(f[3]),
			Port: port, Conns: conns,
		})
	default:
		return fmt.Errorf("ontology: DLSP line %d: unknown record %q", i+1, f[0])
	}
	return nil
}
