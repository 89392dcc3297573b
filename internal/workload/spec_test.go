package workload

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// onePoisson is the minimal valid spec: one Poisson class carrying the
// whole submission rate.
func onePoisson(name string) Spec {
	return Spec{Name: name, Classes: []ClassSpec{{Name: "all", Share: 1, Process: ProcPoisson}}}
}

func TestSpecValidateRejects(t *testing.T) {
	amp := func(v float64) *float64 { return &v }
	mut := func(f func(*Spec)) Spec {
		s := onePoisson("t")
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"no name", mut(func(s *Spec) { s.Name = "" }), "no name"},
		{"separator in name", mut(func(s *Spec) { s.Name = "a,b" }), "separator"},
		{"no classes", mut(func(s *Spec) { s.Classes = nil }), "no classes"},
		{"unnamed class", mut(func(s *Spec) { s.Classes[0].Name = "" }), "class with no name"},
		{"duplicate class", mut(func(s *Spec) {
			s.Classes = []ClassSpec{
				{Name: "a", Share: 0.5, Process: ProcPoisson},
				{Name: "a", Share: 0.5, Process: ProcPoisson},
			}
		}), "duplicate class"},
		{"zero share", mut(func(s *Spec) { s.Classes[0].Share = 0 }), "share"},
		{"NaN share", mut(func(s *Spec) { s.Classes[0].Share = math.NaN() }), "share"},
		{"shares not summing", mut(func(s *Spec) { s.Classes[0].Share = 0.7 }), "sum to"},
		{"unknown process", mut(func(s *Spec) { s.Classes[0].Process = "pareto" }), "unknown process"},
		{"shape on poisson", mut(func(s *Spec) { s.Classes[0].Shape = 2 }), "no shape parameter"},
		{"gamma without shape", mut(func(s *Spec) { s.Classes[0].Process = ProcGamma }), "shape"},
		{"gamma huge shape", mut(func(s *Spec) { s.Classes[0].Process = ProcGamma; s.Classes[0].Shape = 1e6 }), "out of range"},
		{"burst without prob", mut(func(s *Spec) { s.Classes[0].Burst = 3 }), "set both or neither"},
		{"prob without burst", mut(func(s *Spec) { s.Classes[0].BurstProb = 0.5 }), "set both or neither"},
		{"prob above one", mut(func(s *Spec) { s.Classes[0].Burst = 3; s.Classes[0].BurstProb = 1.5 }), "burst_prob"},
		{"negative burst", mut(func(s *Spec) { s.Classes[0].Burst = -1 }), "burst"},
		{"amplitude above two", mut(func(s *Spec) { s.Classes[0].DiurnalAmplitude = amp(2.5) }), "diurnal_amplitude"},
		{"surge unknown kind", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: "tsunami", HoldHours: 1, Peak: 2}}
		}), "unknown kind"},
		{"surge no name", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Kind: SurgeFlashCrowd, HoldHours: 1, Peak: 2}}
		}), "surge with no name"},
		{"surge empty window", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, Peak: 2}}
		}), "never opens"},
		{"surge peak below one", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, HoldHours: 1, Peak: 0.5}}
		}), "peak"},
		{"surge unknown class", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, HoldHours: 1, Peak: 2, Classes: []string{"ghost"}}}
		}), "unknown class"},
		{"surge onset hour 24", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, OnsetHour: 24, HoldHours: 1, Peak: 2}}
		}), "onset_hour"},
		{"surge negative onset day", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, OnsetDay: -1, HoldHours: 1, Peak: 2}}
		}), "onset_day"},
		{"surge window exceeds repeat", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{{Name: "x", Kind: SurgeFlashCrowd, HoldHours: 30, Peak: 2, RepeatDays: 1}}
		}), "cannot repeat"},
		{"duplicate surge", mut(func(s *Spec) {
			s.Surges = []SurgeSpec{
				{Name: "x", Kind: SurgeFlashCrowd, HoldHours: 1, Peak: 2},
				{Name: "x", Kind: SurgeFailover, HoldHours: 1, Peak: 2},
			}
		}), "duplicate surge"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the %s spec", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestBuiltinSpecsRegistered(t *testing.T) {
	for _, name := range []string{"paper", "flashcrowd", "failover"} {
		s, ok := SpecByName(name)
		if !ok {
			t.Fatalf("built-in spec %q not registered (have %v)", name, SpecNames())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("built-in spec %q invalid: %v", name, err)
		}
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	want := FlashCrowdSpec()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(back) {
		t.Errorf("spec did not survive a JSON round trip:\n%s\nvs\n%s", raw, back)
	}
}

func TestLoadSpecStrict(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field",
			`{"name":"x","classs":[{"name":"a","share":1,"process":"poisson"}]}`,
			"unknown field"},
		{"trailing data",
			`{"name":"x","classes":[{"name":"a","share":1,"process":"poisson"}]} {"again":true}`,
			"trailing data"},
		{"invalid spec",
			`{"name":"x","classes":[{"name":"a","share":0.4,"process":"poisson"}]}`,
			"sum to"},
		{"malformed json", `{"name":`, "decode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadSpec(strings.NewReader(c.doc))
			if err == nil {
				t.Fatalf("LoadSpec accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	raw, err := json.Marshal(PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "paper" || len(s.Classes) != 3 {
		t.Errorf("loaded spec %q with %d classes", s.Name, len(s.Classes))
	}
	if _, err := LoadSpecFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadSpecFile accepted a missing file")
	}
}

func TestRegisterSpecRejectsInvalid(t *testing.T) {
	if err := RegisterSpec(Spec{Name: "broken"}); err == nil {
		t.Fatal("RegisterSpec accepted a spec with no classes")
	}
	if _, ok := SpecByName("broken"); ok {
		t.Fatal("invalid spec landed in the registry")
	}
}

// --- Samplers ---

func sampleMean(n int, draw func() float64) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += draw()
	}
	return sum / float64(n)
}

func TestGammaSampleMean(t *testing.T) {
	rng := simclock.NewRand(7)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		mean := sampleMean(20000, func() float64 { return gammaSample(rng, shape) })
		if math.Abs(mean-shape) > 0.1*shape {
			t.Errorf("gamma(%v) sample mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestWeibullSampleMean(t *testing.T) {
	rng := simclock.NewRand(7)
	for _, shape := range []float64{0.7, 1, 1.5, 3} {
		want := math.Gamma(1 + 1/shape)
		mean := sampleMean(20000, func() float64 { return weibullSample(rng, shape) })
		if math.Abs(mean-want) > 0.1*want {
			t.Errorf("weibull(%v) sample mean %v, want ~%v", shape, mean, want)
		}
	}
}

// TestInterarrivalMeans: every process is normalised to the requested
// mean spacing, so classes differ in texture, not volume.
func TestInterarrivalMeans(t *testing.T) {
	mean := simclock.Hour
	classes := []ClassSpec{
		{Name: "t", Process: ProcTicks},
		{Name: "p", Process: ProcPoisson},
		{Name: "g", Process: ProcGamma, Shape: 0.5},
		{Name: "w", Process: ProcWeibull, Shape: 1.5},
	}
	for _, c := range classes {
		rng := simclock.NewRand(11)
		got := sampleMean(20000, func() float64 {
			d := interarrival(rng, c, mean)
			if d < 1 {
				t.Fatalf("%s: interarrival %v below the 1-tick floor", c.Process, d)
			}
			return float64(d)
		})
		if c.Process == ProcTicks && simclock.Time(got) != mean {
			t.Fatalf("ticks process drifted: %v", got)
		}
		if math.Abs(got-float64(mean)) > 0.1*float64(mean) {
			t.Errorf("%s: mean interarrival %v, want ~%v", c.Process, simclock.Time(got), mean)
		}
	}
}

// --- Surge envelopes ---

func TestSurgeEnvelope(t *testing.T) {
	sg := SurgeSpec{
		Name: "x", Kind: SurgeFlashCrowd,
		OnsetDay: 1, OnsetHour: 9,
		RampHours: 1, HoldHours: 2, DecayHours: 2, Peak: 4,
	}
	at := func(h float64) simclock.Time {
		return simclock.Day + simclock.Time(h*float64(simclock.Hour))
	}
	cases := []struct {
		h    float64
		want float64
	}{
		{8, 0}, {9, 0}, {9.5, 0.5}, {10, 1}, {11.5, 1}, {12, 1}, {13, 0.5}, {14, 0}, {20, 0},
	}
	for _, c := range cases {
		if got := sg.envelope(at(c.h)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("envelope at %vh = %v, want %v", c.h, got, c.want)
		}
	}
	if f := sg.factor(at(8)); f != 1 {
		t.Errorf("factor outside the window = %v, want exactly 1", f)
	}
	if f := sg.factor(at(11)); f != 4 {
		t.Errorf("factor at hold = %v, want 4", f)
	}
	if f := sg.factor(0); f != 1 {
		t.Errorf("factor before onset day = %v, want exactly 1", f)
	}
}

func TestSurgeRepeats(t *testing.T) {
	sg := SurgeSpec{
		Name: "x", Kind: SurgeFlashCrowd,
		OnsetDay: 1, OnsetHour: 9,
		RampHours: 0.5, HoldHours: 2, DecayHours: 1.5, Peak: 4, RepeatDays: 7,
	}
	first := simclock.Day + 10*simclock.Hour
	for week := 0; week < 3; week++ {
		at := first + simclock.Time(week)*7*simclock.Day
		if f := sg.factor(at); f != 4 {
			t.Errorf("week %d: factor %v, want 4", week, f)
		}
		if f := sg.factor(at + 12*simclock.Hour); f != 1 {
			t.Errorf("week %d: factor %v outside the window, want 1", week, f)
		}
	}
	// One-off surges must not repeat.
	sg.RepeatDays = 0
	if f := sg.factor(first + 7*simclock.Day); f != 1 {
		t.Errorf("one-off surge fired again a week later: %v", f)
	}
}

func TestSpecFactors(t *testing.T) {
	s := FlashCrowdSpec()
	peakT := simclock.Day + 11*simclock.Hour // inside morning-rush hold
	if f := s.classFactor("analysts", peakT); f != 4 {
		t.Errorf("analysts classFactor %v, want 4", f)
	}
	if f := s.classFactor("quants", peakT); f != 1 {
		t.Errorf("quants classFactor %v, want exactly 1 (surge scoped to analysts)", f)
	}
	if f := s.ambienceFactor(peakT); f != 4 {
		t.Errorf("ambienceFactor %v, want 4", f)
	}
	if f := s.feedFactor(peakT); f != 1 {
		t.Errorf("feedFactor %v, want 1 for a flash crowd", f)
	}
	fo := FailoverSpec()
	foT := 2*simclock.Day + 16*simclock.Hour // inside partner-cutover hold
	if f := fo.feedFactor(foT); f != 3 {
		t.Errorf("failover feedFactor %v, want 3", f)
	}
	if f := fo.ambienceFactor(foT); f != 1 {
		t.Errorf("failover ambienceFactor %v, want 1", f)
	}
}
