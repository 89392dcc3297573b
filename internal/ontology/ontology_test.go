package ontology

import (
	"slices"
	"strconv"
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
		if err := l.Add(ISSLEntry{Server: "s" + strconv.Itoa(i), IP: "1"}); err != nil {
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
	want := []string{
		"# ISSL index static service list",
		"db001|10.0.0.1|ORA-01,LSF-db001",
		`web\pweird|10.0.0.2|W,EB`,
		"bare|10.0.0.3|",
	}
	if got := l.Encode(); !slices.Equal(got, want) {
		t.Errorf("Encode = %q\nwant %q", got, want)
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
	got := &DLSP{}
	if err := DecodeDLSPTextInto(got, string(in.AppendText(nil))); err != nil {
		t.Fatal(err)
	}
	if got.Server != in.Server || got.GeneratedAt != in.GeneratedAt || got.CPUUtil != in.CPUUtil ||
		got.MemUsedMB != in.MemUsedMB || got.Users != in.Users {
		t.Errorf("fields: %+v", got)
	}
	if len(got.Services) != 2 || got.Services[1].State != "crashed" {
		t.Errorf("services: %+v", got.Services)
	}
}

func TestDLSPDecodeErrors(t *testing.T) {
	var p DLSP
	if err := DecodeDLSPTextInto(&p, "load|0.1|0|1|1"); err == nil {
		t.Error("missing prof should fail")
	}
	if err := DecodeDLSPTextInto(&p, "prof|s|x|m|o|8|1"); err == nil {
		t.Error("bad timestamp should fail")
	}
	if err := DecodeDLSPTextInto(&p, "prof|s|1|m|o|8|1\nsvc|n|k|s|bad|0"); err == nil {
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

// dgsplLines renders the whole list as the lines a pool file holds.
func dgsplLines(l *DGSPL) []string { return AppendLines(nil, string(l.AppendText(nil, ""))) }

func TestDGSPLRoundTrip(t *testing.T) {
	in := sampleDGSPL()
	got, err := DecodeDGSPL(dgsplLines(in))
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
		got, err := DecodeDGSPL(dgsplLines(in))
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
