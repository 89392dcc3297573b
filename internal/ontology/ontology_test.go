package ontology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"", "plain", "with|pipe", "back\\slash", "new\nline", "mix|\\|\n|"}
	for _, c := range cases {
		got := unescape(escape(c))
		if got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
		if strings.ContainsAny(escape(c), "|\n") {
			t.Errorf("escape(%q) still contains metacharacters: %q", c, escape(c))
		}
	}
}

func TestQuickEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool { return unescape(escape(s)) == s }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSplitRecordRespectsEscapes(t *testing.T) {
	rec := joinRecord(escape("a|b"), escape("c"), escape("d\\e"))
	var f [maxFields]string
	n := splitRecord(rec, &f)
	if n != 3 || unescape(f[0]) != "a|b" || unescape(f[2]) != "d\\e" {
		t.Errorf("splitRecord = %d %q", n, f[:min(n, maxFields)])
	}
}

func TestISSLAddLimits(t *testing.T) {
	l := &ISSL{}
	if err := l.Add(ISSLEntry{Server: "", IP: "1"}); err == nil {
		t.Error("empty server should fail")
	}
	if err := l.Add(ISSLEntry{Server: "a", IP: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(ISSLEntry{Server: "a", IP: "2"}); err == nil {
		t.Error("duplicate should fail")
	}
	for i := 1; i < MaxISSLEntries; i++ {
		if err := l.Add(ISSLEntry{Server: "s" + itoa(i), IP: "1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Add(ISSLEntry{Server: "overflow", IP: "1"}); err == nil {
		t.Error("201st entry should fail")
	}
}

func TestISSLRoundTrip(t *testing.T) {
	l := &ISSL{}
	l.Add(ISSLEntry{Server: "db001", IP: "10.0.0.1", Services: []string{"ORA-01", "LSF-db001"}})
	l.Add(ISSLEntry{Server: "web|weird", IP: "10.0.0.2", Services: []string{"W,EB"}})
	l.Add(ISSLEntry{Server: "bare", IP: "10.0.0.3"})
	got, err := DecodeISSL(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	if got.Entries[1].Server != "web|weird" {
		t.Errorf("escaped server = %q", got.Entries[1].Server)
	}
	if got.Lookup("db001") == nil || got.Lookup("nope") != nil {
		t.Error("lookup broken")
	}
	if s := got.ServersRunning("ORA-01"); len(s) != 1 || s[0] != "db001" {
		t.Errorf("ServersRunning = %v", s)
	}
	if len(got.Entries[2].Services) != 0 {
		t.Errorf("bare entry services = %v", got.Entries[2].Services)
	}
}

func TestISSLDecodeErrors(t *testing.T) {
	if _, err := DecodeISSL([]string{"only|two"}); err == nil {
		t.Error("2-field line should fail")
	}
	if _, err := DecodeISSL([]string{"# comment", "", "a|1|x"}); err != nil {
		t.Errorf("comments should be skipped: %v", err)
	}
}

func sampleSLKT() *SLKT {
	return &SLKT{
		Server: "db001", Model: "E4500", CPUs: 8, MemoryMB: 8192,
		Apps: []SLKTApp{
			{
				Name: "ORA-01", Kind: "oracle", Version: "8.1.7", Port: 1521,
				BinaryPath: "/apps/oracle/bin", TimeoutSec: 30,
				StartupSeq: []string{"ora_pmon", "ora_smon", "ora_dbwr"},
				ProcCounts: map[string]int{"ora_pmon": 1, "ora_smon": 1, "ora_dbwr": 2},
			},
			{
				Name: "LSF-db001", Kind: "lsf", Version: "4.1", Port: 6878,
				BinaryPath: "/apps/lsf/bin", TimeoutSec: 15,
				StartupSeq: []string{"lim", "sbatchd"},
				ProcCounts: map[string]int{"lim": 1, "sbatchd": 1},
				DependsOn:  []string{"ORA-01"},
			},
		},
	}
}

func TestSLKTRoundTrip(t *testing.T) {
	in := sampleSLKT()
	got, err := DecodeSLKT(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != "db001" || got.Model != "E4500" || got.CPUs != 8 || got.MemoryMB != 8192 {
		t.Errorf("hw fields: %+v", got)
	}
	if len(got.Apps) != 2 {
		t.Fatalf("apps = %d", len(got.Apps))
	}
	ora := got.App("ORA-01")
	if ora == nil {
		t.Fatal("ORA-01 missing")
	}
	if ora.TimeoutSec != 30 || ora.Timeout() != 30*1e9 {
		t.Errorf("timeout = %d (%v)", ora.TimeoutSec, ora.Timeout())
	}
	if len(ora.StartupSeq) != 3 || ora.StartupSeq[0] != "ora_pmon" {
		t.Errorf("startup seq = %v", ora.StartupSeq)
	}
	if ora.ProcCounts["ora_dbwr"] != 2 || ora.ExpectedProcs() != 4 {
		t.Errorf("proc counts = %v", ora.ProcCounts)
	}
	lsf := got.App("LSF-db001")
	if lsf == nil || len(lsf.DependsOn) != 1 || lsf.DependsOn[0] != "ORA-01" {
		t.Errorf("deps = %+v", lsf)
	}
	if got.App("nope") != nil {
		t.Error("App should return nil for unknown")
	}
}

func TestSLKTDecodeErrors(t *testing.T) {
	cases := [][]string{
		{"app|x|k|v|1|p|5"},              // app with no hw is fine structurally but missing hw at end
		{"hw|s|m|eight|1"},               // bad cpus
		{"hw|s|m|1|1", "seq|ghost|a"},    // seq for unknown app
		{"hw|s|m|1|1", "proc|ghost|a|1"}, // proc for unknown app
		{"hw|s|m|1|1", "dep|ghost|a"},    // dep for unknown app
		{"hw|s|m|1|1", "wat|x"},          // unknown record
		{"hw|short"},                     // wrong arity
	}
	for i, lines := range cases {
		if _, err := DecodeSLKT(lines); err == nil {
			t.Errorf("case %d should fail: %v", i, lines)
		}
	}
}

func sampleDLSP() *DLSP {
	return &DLSP{
		Server: "db001", GeneratedAt: 12345, Model: "E4500", OS: "Solaris8",
		CPUs: 8, MemoryMB: 8192, CPUUtil: 0.42, RunQueue: 1, MemUsedMB: 4096.5, Users: 7,
		Services: []DLSPService{
			{Name: "ORA-01", Kind: "oracle", State: "running", Port: 1521, Conns: 12},
			{Name: "LSF-db001", Kind: "lsf", State: "crashed", Port: 6878, Conns: 0},
		},
	}
}

func TestDLSPRoundTrip(t *testing.T) {
	in := sampleDLSP()
	got, err := DecodeDLSP(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != in.Server || got.GeneratedAt != in.GeneratedAt || got.CPUUtil != in.CPUUtil ||
		got.MemUsedMB != in.MemUsedMB || got.Users != in.Users {
		t.Errorf("fields: %+v", got)
	}
	if len(got.Services) != 2 || got.Services[1].State != "crashed" {
		t.Errorf("services: %+v", got.Services)
	}
	if got.Service("ORA-01") == nil || got.Service("nope") != nil {
		t.Error("Service lookup broken")
	}
	if c := got.Capacity(); c < 0.579 || c > 0.581 {
		t.Errorf("capacity = %v", c)
	}
}

func TestDLSPDecodeErrors(t *testing.T) {
	if _, err := DecodeDLSP([]string{"load|0.1|0|1|1"}); err == nil {
		t.Error("missing prof should fail")
	}
	if _, err := DecodeDLSP([]string{"prof|s|x|m|o|8|1"}); err == nil {
		t.Error("bad timestamp should fail")
	}
	if _, err := DecodeDLSP([]string{"prof|s|1|m|o|8|1", "svc|n|k|s|bad|0"}); err == nil {
		t.Error("bad port should fail")
	}
}

func sampleDGSPL() *DGSPL {
	return &DGSPL{
		GeneratedAt: 999,
		Entries: []DGSPLEntry{
			{Server: "db001", ServerType: "E4500", OS: "Solaris8", CPUs: 8, MemoryMB: 8192,
				AppName: "ORA-01", AppType: "oracle", AppVersion: "8.1.7", Load: 0.3, Users: 4,
				Geo: "UK", Site: "london-dc1", State: "running", JobsRunning: 2, JobsWaiting: 1, JobLimit: 8},
			{Server: "db002", ServerType: "E10K", OS: "Solaris8", CPUs: 32, MemoryMB: 32768,
				AppName: "ORA-02", AppType: "oracle", AppVersion: "8.1.7", Load: 0.5, Users: 9,
				Geo: "UK", Site: "london-dc1", State: "running", JobsRunning: 5, JobsWaiting: 0, JobLimit: 16},
			{Server: "db003", ServerType: "E450", OS: "Solaris8", CPUs: 4, MemoryMB: 4096,
				AppName: "ORA-03", AppType: "oracle", AppVersion: "8.1.7", Load: 0.1, Users: 0,
				Geo: "UK", Site: "london-dc1", State: "crashed", JobsRunning: 0, JobsWaiting: 0, JobLimit: 6},
			{Server: "web01", ServerType: "SP2", OS: "AIX4", CPUs: 4, MemoryMB: 2048,
				AppName: "WEB-01", AppType: "webserver", AppVersion: "1.3", Load: 0.2, Users: 1,
				Geo: "UK", Site: "london-dc1", State: "running", JobLimit: 0},
		},
	}
}

func TestDGSPLRoundTrip(t *testing.T) {
	in := sampleDGSPL()
	got, err := DecodeDGSPL(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.GeneratedAt != 999 || len(got.Entries) != 4 {
		t.Fatalf("decoded: gen=%v n=%d", got.GeneratedAt, len(got.Entries))
	}
	for i := range in.Entries {
		if got.Entries[i] != in.Entries[i] {
			t.Errorf("entry %d mismatch:\n in=%+v\ngot=%+v", i, in.Entries[i], got.Entries[i])
		}
	}
	if e := got.Entry("ORA-02"); e == nil || e.Server != "db002" {
		t.Error("Entry lookup broken")
	}
}

func TestDGSPLByAppAndSlots(t *testing.T) {
	l := sampleDGSPL()
	oracles := l.ByApp("oracle")
	if len(oracles) != 3 {
		t.Fatalf("oracle entries = %d", len(oracles))
	}
	if f := oracles[0].SlotsFree(); f != 5 {
		t.Errorf("db001 free slots = %d, want 5", f)
	}
	e := DGSPLEntry{JobLimit: 2, JobsRunning: 5}
	if e.SlotsFree() != 0 {
		t.Errorf("oversubscribed slots should clamp at 0: %d", e.SlotsFree())
	}
	if !oracles[0].Available() || l.Entries[2].Available() {
		t.Error("availability misjudged")
	}
}

func TestDGSPLShortlist(t *testing.T) {
	l := sampleDGSPL()
	power := func(model string, cpus int) float64 {
		switch model {
		case "E10K":
			return 38.4
		case "E4500":
			return 8.8
		case "E450":
			return 4.0
		}
		return float64(cpus)
	}
	sl := l.Shortlist("oracle", power)
	// db003 is crashed, so only db001 and db002 qualify. db002 has
	// (1-0.5)*38.4=19.2 headroom vs db001 (1-0.3)*8.8=6.16: db002 first.
	if len(sl) != 2 || sl[0].Server != "db002" || sl[1].Server != "db001" {
		names := make([]string, len(sl))
		for i, e := range sl {
			names[i] = e.Server
		}
		t.Errorf("shortlist = %v", names)
	}
	// Full slots exclude a server.
	l.Entries[1].JobsRunning = 16
	sl = l.Shortlist("oracle", power)
	if len(sl) != 1 || sl[0].Server != "db001" {
		t.Errorf("shortlist after filling db002 = %v", sl)
	}
}

func TestDGSPLDecodeErrors(t *testing.T) {
	for _, gen := range []string{"gen|abc", "gen|12abc", "gen| 7", "gen|7 ", "gen|"} {
		if _, err := DecodeDGSPL([]string{gen}); err == nil {
			t.Errorf("bad gen %q should fail", gen)
		}
	}
	if _, err := DecodeDGSPL([]string{"svc|too|few"}); err == nil {
		t.Error("short svc should fail")
	}
	if _, err := DecodeDGSPL([]string{"bogus|x"}); err == nil {
		t.Error("unknown record should fail")
	}
}

// Property: DGSPL entries with arbitrary strings survive an encode/decode
// round trip.
func TestQuickDGSPLRoundTrip(t *testing.T) {
	f := func(server, app, geo string, cpus uint8, load float64) bool {
		in := &DGSPL{Entries: []DGSPLEntry{{
			Server: server, ServerType: "E450", OS: "Solaris8", CPUs: int(cpus),
			AppName: app, AppType: "oracle", Geo: geo, State: "running",
			Load: load,
		}}}
		got, err := DecodeDGSPL(in.Encode())
		if err != nil {
			return false
		}
		return len(got.Entries) == 1 && got.Entries[0] == in.Entries[0]
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: SLKT round-trips arbitrary app names.
func TestQuickSLKTRoundTrip(t *testing.T) {
	f := func(name string, port uint16, tmo uint8) bool {
		if name == "" {
			return true
		}
		in := &SLKT{Server: "s", Model: "m", CPUs: 1, MemoryMB: 1,
			Apps: []SLKTApp{{Name: name, Kind: "k", Version: "v", Port: int(port),
				BinaryPath: "/b", TimeoutSec: int(tmo),
				StartupSeq: []string{"p1"}, ProcCounts: map[string]int{"p1": 1}}}}
		got, err := DecodeSLKT(in.Encode())
		if err != nil {
			return false
		}
		a := got.App(name)
		return a != nil && a.Port == int(port) && a.TimeoutSec == int(tmo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
