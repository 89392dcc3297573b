package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
)

// Spec declares a statistical workload as data: the site's batch
// submission rate split across client classes, each with its own
// interarrival process, plus optional named surge scenarios. A Spec is
// loadable from JSON exactly like a topology (LoadSpec / LoadSpecFile),
// registrable by name (RegisterSpec), and selectable per campaign cell
// as a first-class axis (`qossim campaign -workload paper,flashcrowd`).
//
// A Spec splits the generator's configured DayJobsPerHour of arrivals
// across its classes (shares must sum to 1 within 1e-6), and each class
// decides *when and how* its jobs arrive — Poisson vs heavy-tailed
// Gamma bursts vs round-the-clock Weibull. Bursts and diurnal
// amplitudes below 1 make a spec offer more than the bare rate under
// the site's diurnal shape. Sites whose topology names no spec run
// PaperSpec.
type Spec struct {
	// Name identifies the spec: the registry key and the campaign's
	// workload-axis label.
	Name string `json:"name"`
	// Classes split the batch submission rate; shares must sum to 1.
	Classes []ClassSpec `json:"classes"`
	// Surges are named surge scenarios layered over the classes.
	Surges []SurgeSpec `json:"surges,omitempty"`
}

// Arrival process kinds a ClassSpec may declare.
const (
	// ProcTicks is the deterministic process: arrivals exactly at the
	// class's mean interarrival, no randomness consumed.
	ProcTicks = "ticks"
	// ProcPoisson draws exponential interarrivals (memoryless).
	ProcPoisson = "poisson"
	// ProcGamma draws Gamma(shape) interarrivals normalised to the class
	// mean: shape < 1 is burstier than Poisson, shape > 1 smoother.
	ProcGamma = "gamma"
	// ProcWeibull draws Weibull(shape) interarrivals normalised to the
	// class mean: shape < 1 heavy-tailed, shape > 1 quasi-regular.
	ProcWeibull = "weibull"
)

// processKinds lists the valid ClassSpec.Process values.
var processKinds = []string{ProcTicks, ProcPoisson, ProcGamma, ProcWeibull}

// ClassSpec is one client class: a share of the site's batch submission
// rate arriving under its own statistical process.
type ClassSpec struct {
	// Name labels the class (unique within the spec).
	Name string `json:"name"`
	// Share is this class's fraction of the generator's DayJobsPerHour;
	// all shares must sum to 1 within 1e-6.
	Share float64 `json:"share"`
	// Process is the interarrival law: ticks, poisson, gamma or weibull.
	Process string `json:"process"`
	// Shape parameterises gamma/weibull (> 0, required there); it must
	// be absent for ticks/poisson, which have no shape parameter.
	Shape float64 `json:"shape,omitempty"`
	// Burst is the number of extra submissions an arrival brings when it
	// bursts; BurstProb is the per-arrival burst probability. Both must
	// be set together (a burst size that can never fire, or a
	// probability with nothing to fire, is a spec mistake).
	Burst     int     `json:"burst,omitempty"`
	BurstProb float64 `json:"burst_prob,omitempty"`
	// DiurnalAmplitude scales the class's day/night swing exactly like a
	// tier's workload amplitude: nil/1 follows the site shape, 0 runs
	// flat at peak, up to 2 exaggerates the swing (clamping at zero).
	DiurnalAmplitude *float64 `json:"diurnal_amplitude,omitempty"`
}

// amp resolves the class's diurnal amplitude (nil = 1, the site shape).
func (c ClassSpec) amp() float64 {
	if c.DiurnalAmplitude == nil {
		return 1
	}
	return *c.DiurnalAmplitude
}

// shareTolerance is how far class shares may sum from 1 before the spec
// is rejected — generous enough for decimal literals, tight enough that
// a forgotten class cannot hide.
const shareTolerance = 1e-6

// maxBurst bounds a class's burst size: a bigger value is certainly a
// typo and would dump thousands of jobs per arrival.
const maxBurst = 1000

// Validate checks the spec is usable: named, at least one class, unique
// class names, positive finite shares summing to 1, known processes
// with shape parameters only where the process has one, coherent burst
// settings, in-range amplitudes, and well-formed surge windows naming
// only declared classes.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload spec has no name")
	}
	if strings.ContainsAny(s.Name, ", ;") {
		return fmt.Errorf("workload spec name %q contains a separator; it must survive the -workload comma list", s.Name)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload spec %q declares no classes", s.Name)
	}
	names := map[string]bool{}
	sum := 0.0
	for _, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("workload spec %q: class with no name", s.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("workload spec %q: duplicate class %q", s.Name, c.Name)
		}
		names[c.Name] = true
		if math.IsNaN(c.Share) || math.IsInf(c.Share, 0) || c.Share <= 0 {
			return fmt.Errorf("workload spec %q class %q: share %v (want a finite share > 0)", s.Name, c.Name, c.Share)
		}
		sum += c.Share
		switch c.Process {
		case ProcTicks, ProcPoisson:
			if c.Shape != 0 {
				return fmt.Errorf("workload spec %q class %q: process %q has no shape parameter (got %v)",
					s.Name, c.Name, c.Process, c.Shape)
			}
		case ProcGamma, ProcWeibull:
			if math.IsNaN(c.Shape) || math.IsInf(c.Shape, 0) || c.Shape <= 0 || c.Shape > 100 {
				return fmt.Errorf("workload spec %q class %q: %s shape %v out of range (0, 100]",
					s.Name, c.Name, c.Process, c.Shape)
			}
		default:
			return fmt.Errorf("workload spec %q class %q: unknown process %q (want one of %s)",
				s.Name, c.Name, c.Process, strings.Join(processKinds, ", "))
		}
		if c.Burst < 0 || c.Burst > maxBurst {
			return fmt.Errorf("workload spec %q class %q: burst %d out of range [0, %d]", s.Name, c.Name, c.Burst, maxBurst)
		}
		if math.IsNaN(c.BurstProb) || c.BurstProb < 0 || c.BurstProb > 1 {
			return fmt.Errorf("workload spec %q class %q: burst_prob %v out of range [0, 1]", s.Name, c.Name, c.BurstProb)
		}
		if (c.Burst > 0) != (c.BurstProb > 0) {
			return fmt.Errorf("workload spec %q class %q: burst %d with burst_prob %v — set both or neither",
				s.Name, c.Name, c.Burst, c.BurstProb)
		}
		if a := c.DiurnalAmplitude; a != nil && (math.IsNaN(*a) || math.IsInf(*a, 0) || *a < 0 || *a > 2) {
			return fmt.Errorf("workload spec %q class %q: diurnal_amplitude %v out of range [0, 2]", s.Name, c.Name, *a)
		}
	}
	if math.Abs(sum-1) > shareTolerance {
		return fmt.Errorf("workload spec %q: class shares sum to %v, want 1 (±%g)", s.Name, sum, shareTolerance)
	}
	surgeNames := map[string]bool{}
	for _, sg := range s.Surges {
		if err := sg.validate(s.Name, names); err != nil {
			return err
		}
		if surgeNames[sg.Name] {
			return fmt.Errorf("workload spec %q: duplicate surge %q", s.Name, sg.Name)
		}
		surgeNames[sg.Name] = true
	}
	return nil
}

// LoadSpec decodes and validates a JSON workload spec. Unknown fields
// are rejected so a typo'd "classs" key fails loudly instead of
// silently dropping the classes.
func LoadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("decode workload spec: %w", err)
	}
	// One document per file: trailing content must not be silently
	// discarded (same rule as topology files).
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("decode workload spec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpecFile reads a workload-spec JSON file.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := LoadSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// --- Named-spec registry ---

var (
	specMu  sync.RWMutex
	specReg = map[string]Spec{}
)

// RegisterSpec validates a workload spec and registers it under its
// Name, replacing any earlier registration, so topologies and campaigns
// can select it by name (`-workload <name>`).
func RegisterSpec(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	specMu.Lock()
	defer specMu.Unlock()
	specReg[s.Name] = s
	return nil
}

// SpecByName looks up a registered workload spec.
func SpecByName(name string) (Spec, bool) {
	specMu.RLock()
	defer specMu.RUnlock()
	s, ok := specReg[name]
	return s, ok
}

// SpecNames lists the registered workload specs, sorted.
func SpecNames() []string {
	specMu.RLock()
	defer specMu.RUnlock()
	names := make([]string, 0, len(specReg))
	for name := range specReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- Built-in specs ---

// PaperSpec is the statistical rendering of the paper's offered load,
// the day batch work of the three client populations §4 describes:
// Poisson interactive analysts, a bursty heavy-tailed quant class, and
// a small round-the-clock feed-replay class that barely sleeps. The
// quants' bursts and feed-replay's overnight arrivals offer about 1.39×
// the bare diurnal volume: at the paper site's 12 jobs/hour, 167.8 day
// jobs a day on average against 121.0. The other built-in specs add
// surges to this class mix.
func PaperSpec() Spec {
	quarter := 0.25
	return Spec{Name: "paper", Classes: []ClassSpec{
		{Name: "analysts", Share: 0.5, Process: ProcPoisson},
		{Name: "quants", Share: 0.3, Process: ProcGamma, Shape: 0.5, Burst: 2, BurstProb: 0.3},
		{Name: "feed-replay", Share: 0.2, Process: ProcWeibull, Shape: 1.5, DiurnalAmplitude: &quarter},
	}}
}

// FlashCrowdSpec is PaperSpec plus a repeating weekday flash crowd: a
// late-morning spike that ramps in over half an hour, holds for two,
// and decays over ninety minutes, quadrupling analyst arrivals and
// interactive ambience at its peak.
func FlashCrowdSpec() Spec {
	s := PaperSpec()
	s.Name = "flashcrowd"
	s.Surges = []SurgeSpec{{
		Name: "morning-rush", Kind: SurgeFlashCrowd,
		OnsetDay: 1, OnsetHour: 9.5,
		RampHours: 0.5, HoldHours: 2, DecayHours: 1.5,
		Peak: 4, Classes: []string{"analysts"}, RepeatDays: 7,
	}}
	return s
}

// FailoverSpec is PaperSpec plus a one-off failover surge: a partner
// site's market feeds cut over mid-afternoon on day two, tripling feed
// load and feed-replay arrivals for four hours before draining away.
func FailoverSpec() Spec {
	s := PaperSpec()
	s.Name = "failover"
	s.Surges = []SurgeSpec{{
		Name: "partner-cutover", Kind: SurgeFailover,
		OnsetDay: 2, OnsetHour: 14,
		RampHours: 0.25, HoldHours: 4, DecayHours: 2,
		Peak: 3, Classes: []string{"feed-replay"},
	}}
	return s
}

func init() {
	for _, s := range []Spec{PaperSpec(), FlashCrowdSpec(), FailoverSpec()} {
		if err := RegisterSpec(s); err != nil {
			panic(err) // built-in specs must validate
		}
	}
}
