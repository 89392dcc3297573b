package ontology

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/simclock"
)

// DGSPLEntry presents one available service exactly as the paper describes
// (§3.1d): <Server type, OS, memory and CPUs, Application type and version,
// Current Load, Users logged in, Geographical Location, Site Name>, plus
// the LSF extensions the paper added in §4 (jobs currently processed, jobs
// waiting, and the job submission limit per database server).
type DGSPLEntry struct {
	Server     string
	ServerType string // hardware model family
	OS         string
	CPUs       int
	MemoryMB   int
	AppName    string
	AppType    string
	AppVersion string
	Load       float64 // current CPU utilisation 0..1
	Users      int
	Geo        string
	Site       string
	State      string
	// LSF extensions (paper §4).
	JobsRunning int
	JobsWaiting int
	JobLimit    int
}

// Available reports whether the entry can accept work right now.
func (e DGSPLEntry) Available() bool { return e.State == "running" || e.State == "degraded" }

// SlotsFree reports remaining LSF job slots (limit minus running+waiting).
func (e DGSPLEntry) SlotsFree() int {
	free := e.JobLimit - e.JobsRunning - e.JobsWaiting
	if free < 0 {
		return 0
	}
	return free
}

// DGSPL is a dynamic global service profile list covering the datacentre.
type DGSPL struct {
	GeneratedAt simclock.Time
	Entries     []DGSPLEntry
}

// ByApp returns entries for the given application type, e.g. "oracle".
func (l *DGSPL) ByApp(appType string) []DGSPLEntry {
	var out []DGSPLEntry
	for _, e := range l.Entries {
		if e.AppType == appType {
			out = append(out, e)
		}
	}
	return out
}

// Entry finds the first entry for an app name, or nil.
func (l *DGSPL) Entry(appName string) *DGSPLEntry {
	for i := range l.Entries {
		if l.Entries[i].AppName == appName {
			return &l.Entries[i]
		}
	}
	return nil
}

// Shortlist ranks available entries of the given app type for job
// submission, best choice first, the way the admin servers present "the
// best available database server for the batch job in a shortlist, with the
// best choice always first": available, with free slots, least loaded
// relative to its power, most powerful first among ties.
func (l *DGSPL) Shortlist(appType string, powerOf func(model string, cpus int) float64) []DGSPLEntry {
	var cands []DGSPLEntry
	for _, e := range l.ByApp(appType) {
		if e.Available() && e.SlotsFree() > 0 {
			cands = append(cands, e)
		}
	}
	score := func(e DGSPLEntry) float64 {
		// Effective headroom: free fraction of the server's power.
		return (1 - e.Load) * powerOf(e.ServerType, e.CPUs)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		si, sj := score(cands[i]), score(cands[j])
		if si != sj {
			return si > sj
		}
		return cands[i].Server < cands[j].Server
	})
	return cands
}

// Encode renders the list:
//
//	gen|generated_ns
//	svc|server|serverType|os|cpus|memMB|appName|appType|version|load|users|geo|site|state|jobsRun|jobsWait|jobLimit
func (l *DGSPL) Encode() []string { return AppendLines(nil, string(l.AppendText(nil, ""))) }

// AppendText appends the lines Encode renders, joined by newlines with no
// trailing newline, and returns the extended buffer. A non-empty appType
// keeps only the entries of that application type: the per-type lists the
// administration servers write to the shared pool.
func (l *DGSPL) AppendText(b []byte, appType string) []byte {
	b = append(b, "# DGSPL dynamic global service profile list\ngen"...)
	b = appendInt(b, int64(l.GeneratedAt))
	for i := range l.Entries {
		if e := &l.Entries[i]; appType == "" || e.AppType == appType {
			b = e.AppendText(append(b, '\n'))
		}
	}
	return b
}

// AppendText appends the entry's svc record, as Encode renders it, and
// returns the extended buffer.
func (e *DGSPLEntry) AppendText(b []byte) []byte {
	b = append(b, "svc"...)
	b = appendField(b, e.Server)
	b = appendField(b, e.ServerType)
	b = appendField(b, e.OS)
	b = appendInt(b, int64(e.CPUs))
	b = appendInt(b, int64(e.MemoryMB))
	b = appendField(b, e.AppName)
	b = appendField(b, e.AppType)
	b = appendField(b, e.AppVersion)
	b = appendFloat(b, e.Load)
	b = appendInt(b, int64(e.Users))
	b = appendField(b, e.Geo)
	b = appendField(b, e.Site)
	b = appendField(b, e.State)
	b = appendInt(b, int64(e.JobsRunning))
	b = appendInt(b, int64(e.JobsWaiting))
	return appendInt(b, int64(e.JobLimit))
}

// DecodeDGSPL parses lines produced by Encode.
func DecodeDGSPL(lines []string) (*DGSPL, error) {
	l := &DGSPL{}
	var f [maxFields]string
	for i, line := range lines {
		if isComment(line) {
			continue
		}
		n := splitRecord(line, &f)
		switch f[0] {
		case "gen":
			if n != 2 {
				return nil, fmt.Errorf("ontology: DGSPL line %d: gen wants 2 fields", i+1)
			}
			gen, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ontology: DGSPL line %d: bad timestamp %q", i+1, f[1])
			}
			l.GeneratedAt = simclock.Time(gen)
		case "svc":
			if n != 17 {
				return nil, fmt.Errorf("ontology: DGSPL line %d: svc wants 17 fields, got %d", i+1, n)
			}
			var e DGSPLEntry
			var err error
			e.Server = unescape(f[1])
			e.ServerType = unescape(f[2])
			e.OS = unescape(f[3])
			if e.CPUs, err = parseInt(f[4], "cpus"); err != nil {
				return nil, err
			}
			if e.MemoryMB, err = parseInt(f[5], "memMB"); err != nil {
				return nil, err
			}
			e.AppName = unescape(f[6])
			e.AppType = unescape(f[7])
			e.AppVersion = unescape(f[8])
			if e.Load, err = parseFloat(f[9], "load"); err != nil {
				return nil, err
			}
			if e.Users, err = parseInt(f[10], "users"); err != nil {
				return nil, err
			}
			e.Geo = unescape(f[11])
			e.Site = unescape(f[12])
			e.State = unescape(f[13])
			if e.JobsRunning, err = parseInt(f[14], "jobsRunning"); err != nil {
				return nil, err
			}
			if e.JobsWaiting, err = parseInt(f[15], "jobsWaiting"); err != nil {
				return nil, err
			}
			if e.JobLimit, err = parseInt(f[16], "jobLimit"); err != nil {
				return nil, err
			}
			l.Entries = append(l.Entries, e)
		default:
			return nil, fmt.Errorf("ontology: DGSPL line %d: unknown record %q", i+1, f[0])
		}
	}
	return l, nil
}
