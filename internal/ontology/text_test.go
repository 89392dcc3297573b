package ontology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

// The encoders as they were written with fmt, strings.Join and
// strings.ReplaceAll, kept as the oracle the appenders must match byte for
// byte.

func oracleEscape(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "|", "\\p")
	s = strings.ReplaceAll(s, "\n", "\\n")
	return s
}

func oracleFtoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func oracleDLSP(p *DLSP) []string {
	lines := []string{
		"# DLSP dynamic local service profile",
		strings.Join([]string{"prof", oracleEscape(p.Server), fmt.Sprintf("%d", int64(p.GeneratedAt)),
			oracleEscape(p.Model), oracleEscape(p.OS), strconv.Itoa(p.CPUs), strconv.Itoa(p.MemoryMB)}, "|"),
		strings.Join([]string{"load", oracleFtoa(p.CPUUtil), strconv.Itoa(p.RunQueue),
			oracleFtoa(p.MemUsedMB), strconv.Itoa(p.Users)}, "|"),
	}
	for _, s := range p.Services {
		lines = append(lines, strings.Join([]string{"svc", oracleEscape(s.Name), oracleEscape(s.Kind),
			oracleEscape(s.State), strconv.Itoa(s.Port), strconv.Itoa(s.Conns)}, "|"))
	}
	return lines
}

func oracleDGSPLEntry(e DGSPLEntry) string {
	return strings.Join([]string{"svc",
		oracleEscape(e.Server), oracleEscape(e.ServerType), oracleEscape(e.OS),
		strconv.Itoa(e.CPUs), strconv.Itoa(e.MemoryMB),
		oracleEscape(e.AppName), oracleEscape(e.AppType), oracleEscape(e.AppVersion),
		oracleFtoa(e.Load), strconv.Itoa(e.Users), oracleEscape(e.Geo), oracleEscape(e.Site),
		oracleEscape(e.State), strconv.Itoa(e.JobsRunning), strconv.Itoa(e.JobsWaiting),
		strconv.Itoa(e.JobLimit)}, "|")
}

// oracleDGSPL renders the list, or with a non-empty appType the per-type
// file the administration servers wrote: one single-entry list's lines per
// entry, the header kept from the first only.
func oracleDGSPL(l *DGSPL, appType string) []string {
	lines := []string{
		"# DGSPL dynamic global service profile list",
		"gen|" + fmt.Sprintf("%d", int64(l.GeneratedAt)),
	}
	for _, e := range l.Entries {
		if appType == "" || e.AppType == appType {
			lines = append(lines, oracleDGSPLEntry(e))
		}
	}
	return lines
}

// Generators: text fields built from the metacharacters, non-ASCII text,
// escape look-alikes and empty strings, and floats and ints that include
// the values whose formatting differs most between formatters.

var textPieces = []string{"", "|", "\\", "\n", "\\p", "\\n", "é", "日本", "ORA-01", "running", " ", "a"}

func genText(r *rand.Rand) string {
	var b strings.Builder
	for range r.Intn(5) {
		b.WriteString(textPieces[r.Intn(len(textPieces))])
	}
	return b.String()
}

var floatSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	1e21, 1e20, 5e-324, math.MaxFloat64, 0.5, 1.0 / 3, 0.42, 4096.5}

func genFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return floatSpecials[r.Intn(len(floatSpecials))]
	case 1:
		return math.Float64frombits(r.Uint64())
	}
	return r.NormFloat64() * math.Pow(10, float64(r.Intn(30)-15))
}

var intSpecials = []int{0, 1, -1, 7, 1521, math.MaxInt, math.MinInt}

func genInt(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return intSpecials[r.Intn(len(intSpecials))]
	}
	return int(r.Int63() - r.Int63())
}

type quickDLSP struct{ p *DLSP }

func (quickDLSP) Generate(r *rand.Rand, _ int) reflect.Value {
	p := &DLSP{
		Server: genText(r), GeneratedAt: simclock.Time(genInt(r)), Model: genText(r), OS: genText(r),
		CPUs: genInt(r), MemoryMB: genInt(r), CPUUtil: genFloat(r), RunQueue: genInt(r),
		MemUsedMB: genFloat(r), Users: genInt(r),
	}
	for range r.Intn(5) {
		p.Services = append(p.Services, DLSPService{Name: genText(r), Kind: genText(r),
			State: genText(r), Port: genInt(r), Conns: genInt(r)})
	}
	return reflect.ValueOf(quickDLSP{p})
}

type quickDGSPL struct{ l *DGSPL }

func (quickDGSPL) Generate(r *rand.Rand, _ int) reflect.Value {
	l := &DGSPL{GeneratedAt: simclock.Time(genInt(r))}
	types := []string{"oracle", "sybase", genText(r)}
	for range r.Intn(6) {
		l.Entries = append(l.Entries, DGSPLEntry{
			Server: genText(r), ServerType: genText(r), OS: genText(r), CPUs: genInt(r),
			MemoryMB: genInt(r), AppName: genText(r), AppType: types[r.Intn(len(types))],
			AppVersion: genText(r), Load: genFloat(r), Users: genInt(r), Geo: genText(r),
			Site: genText(r), State: genText(r), JobsRunning: genInt(r), JobsWaiting: genInt(r),
			JobLimit: genInt(r),
		})
	}
	return reflect.ValueOf(quickDGSPL{l})
}

// sameFloat treats any two NaNs as equal and tells -0 from 0.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameDLSP compares two profiles field by field; a nil and an empty
// service list are the same list.
func sameDLSP(a, b *DLSP) bool {
	return a.Server == b.Server && a.GeneratedAt == b.GeneratedAt && a.Model == b.Model &&
		a.OS == b.OS && a.CPUs == b.CPUs && a.MemoryMB == b.MemoryMB &&
		sameFloat(a.CPUUtil, b.CPUUtil) && a.RunQueue == b.RunQueue &&
		sameFloat(a.MemUsedMB, b.MemUsedMB) && a.Users == b.Users &&
		slices.Equal(a.Services, b.Services)
}

var quickCfg = &quick.Config{MaxCount: 500}

// Property: the DLSP appender and Encode render exactly the lines the
// fmt/Join/ReplaceAll encoder rendered, and the text decodes back to the
// profile.
func TestQuickDLSPAppendTextMatchesOracle(t *testing.T) {
	f := func(q quickDLSP) bool {
		want := oracleDLSP(q.p)
		text := string(q.p.AppendText([]byte("stale")))
		if text != "stale"+strings.Join(want, "\n") {
			t.Logf("AppendText = %q\nwant %q", text, want)
			return false
		}
		if got := q.p.Encode(); !slices.Equal(got, want) {
			t.Logf("Encode = %q\nwant %q", got, want)
			return false
		}
		got, err := DecodeDLSPText(text[len("stale"):])
		if err != nil || !sameDLSP(got, q.p) {
			t.Logf("decode = %+v, %v\nwant %+v", got, err, q.p)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: decoding into a dirty profile — one holding more services
// than the text and stale fields everywhere — equals a fresh decode, also
// for a text without the optional load record.
func TestQuickDLSPDecodeIntoDirty(t *testing.T) {
	f := func(q, dirty quickDLSP) bool {
		full := string(q.p.AppendText(nil))
		lines := strings.Split(full, "\n")
		noLoad := strings.Join(slices.Delete(lines, 2, 3), "\n")
		for _, text := range []string{full, noLoad} {
			fresh, err := DecodeDLSPText(text)
			if err != nil {
				return false
			}
			d := dirty.p
			for len(d.Services) <= len(q.p.Services) {
				d.Services = append(d.Services, DLSPService{Name: "stale", Port: 1})
			}
			d.CPUUtil, d.RunQueue, d.MemUsedMB, d.Users = 0.5, 3, 100, 2
			if err := DecodeDLSPTextInto(d, text); err != nil {
				return false
			}
			if !sameDLSP(d, fresh) || len(d.Services) != len(q.p.Services) {
				t.Logf("into dirty = %+v\nfresh = %+v", d, fresh)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the DGSPL entry appender, Encode and the per-type text render
// exactly what the fmt/Join/ReplaceAll encoder rendered.
func TestQuickDGSPLAppendTextMatchesOracle(t *testing.T) {
	f := func(q quickDGSPL) bool {
		for _, e := range q.l.Entries {
			if got, want := string(e.AppendText(nil)), oracleDGSPLEntry(e); got != want {
				t.Logf("entry AppendText = %q\nwant %q", got, want)
				return false
			}
		}
		if got, want := q.l.Encode(), oracleDGSPL(q.l, ""); !slices.Equal(got, want) {
			t.Logf("Encode = %q\nwant %q", got, want)
			return false
		}
		for _, appType := range []string{"oracle", "sybase", "none"} {
			got := string(q.l.AppendText(nil, appType))
			if want := strings.Join(oracleDGSPL(q.l, appType), "\n"); got != want {
				t.Logf("AppendText(%q) = %q\nwant %q", appType, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestAppendLines(t *testing.T) {
	for text, want := range map[string][]string{
		"":        {""},
		"a":       {"a"},
		"a\nb":    {"a", "b"},
		"a\n":     {"a", ""},
		"\n\nc\n": {"", "", "c", ""},
	} {
		if got := AppendLines([]string{"keep"}, text); !slices.Equal(got, append([]string{"keep"}, want...)) {
			t.Errorf("AppendLines(%q) = %q, want %q", text, got, want)
		}
		if got := strings.Split(text, "\n"); !slices.Equal(got, want) {
			t.Errorf("test table disagrees with strings.Split on %q", text)
		}
	}
}

func TestRecordArity(t *testing.T) {
	long := "svc" + strings.Repeat("|x", 17) // 18 fields
	if _, err := DecodeDGSPL([]string{long}); err == nil {
		t.Error("an 18-field DGSPL svc record should fail")
	}
	if _, err := DecodeDLSP([]string{"prof|s|1|m|o|8|1", "svc|n|k|s|1|0|extra"}); err == nil {
		t.Error("a 7-field DLSP svc record should fail")
	}
	var f [maxFields]string
	if n := splitRecord(strings.Repeat("|", 40), &f); n != 41 {
		t.Errorf("splitRecord counted %d fields, want 41", n)
	}
	// An escaped pipe, which hand-edited files may hold although the
	// encoders write `\p`, does not end a field.
	if n := splitRecord(`a\|b|c\`, &f); n != 2 || f[0] != `a\|b` || f[1] != `c\` || unescape(f[0]) != "a|b" {
		t.Errorf("splitRecord = %d %q", n, f[:2])
	}
}

// A warmed encode into a reused buffer and a warmed decode into a reused
// profile allocate nothing.
func TestTextCodecAllocs(t *testing.T) {
	p := sampleDLSP()
	buf := p.AppendText(nil)
	if n := testing.AllocsPerRun(100, func() { buf = p.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("warmed DLSP.AppendText: %v allocs, want 0", n)
	}
	text := string(buf)
	var into DLSP
	if err := DecodeDLSPTextInto(&into, text); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeDLSPTextInto(&into, text); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warmed DecodeDLSPTextInto: %v allocs, want 0", n)
	}
	if !sameDLSP(&into, p) {
		t.Errorf("decoded %+v, want %+v", into, *p)
	}
	l := sampleDGSPL()
	buf = l.AppendText(buf[:0], "oracle")
	if n := testing.AllocsPerRun(100, func() { buf = l.AppendText(buf[:0], "oracle") }); n != 0 {
		t.Errorf("warmed DGSPL.AppendText: %v allocs, want 0", n)
	}
}
