package qoscluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// validTopo returns a minimal valid topology tests can break one field at
// a time.
func validTopo() Topology {
	return Topology{
		Name: "t", Geo: "UK",
		Tiers: []Tier{
			{Name: "db", Role: "database", Hosts: 2, IPBlock: "10.2.0",
				Hardware: []string{"E4500"},
				Services: []ServiceTemplate{
					{Kind: "oracle", Name: "ORA-%03d", Port: 1521, LSFTarget: true},
					{Kind: "lsf", Name: "LSF-{host}"},
				}},
			{Name: "fe", Role: "frontend", Hosts: 1, IPBlock: "10.4.0",
				Hardware: []string{"SP2"},
				Services: []ServiceTemplate{
					{Kind: "frontend", Name: "FE-%03d", Port: 8000, PortStep: 1, DependsOn: "db"},
				}},
		},
	}
}

func TestTopologyValidation(t *testing.T) {
	if err := validTopo().Validate(); err != nil {
		t.Fatalf("base topology invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Topology)
		wantErr string
	}{
		{"no name", func(tp *Topology) { tp.Name = "" }, "no name"},
		{"no tiers", func(tp *Topology) { tp.Tiers = nil }, "no tiers"},
		{"duplicate tier names", func(tp *Topology) { tp.Tiers[1].Name = "db" }, "duplicate tier"},
		{"bad tier name charset", func(tp *Topology) { tp.Tiers[0].Name = "t%d" }, "tier name"},
		{"tier name starts with digit", func(tp *Topology) { tp.Tiers[0].Name = "1db" }, "tier name"},
		{"zero-host tier", func(tp *Topology) { tp.Tiers[0].Hosts = 0 }, "hosts"},
		{"negative-host tier", func(tp *Topology) { tp.Tiers[0].Hosts = -3 }, "hosts"},
		{"tier exhausts the IP space", func(tp *Topology) {
			tp.Tiers[0].IPBlock = "10.2.254"
			tp.Tiers[0].Hosts = 600 // needs blocks .254-.256
		}, "exhausting the IP space"},
		{"unknown role", func(tp *Topology) { tp.Tiers[0].Role = "mainframe" }, "unknown role"},
		{"reserved admin role", func(tp *Topology) { tp.Tiers[1].Role = "admin" }, "reserved"},
		{"empty hardware mix", func(tp *Topology) { tp.Tiers[0].Hardware = nil }, "hardware"},
		{"unknown hardware model", func(tp *Topology) { tp.Tiers[0].Hardware = []string{"VAX"} }, "unknown hardware model"},
		{"bad IP block", func(tp *Topology) { tp.Tiers[0].IPBlock = "10.2" }, "IP block"},
		{"reserved admin IP block", func(tp *Topology) { tp.Tiers[0].IPBlock = "10.1.0" }, "reserved"},
		{"duplicate IP block", func(tp *Topology) { tp.Tiers[1].IPBlock = "10.2.0" }, "share IP block"},
		{"unknown service kind", func(tp *Topology) { tp.Tiers[0].Services[0].Kind = "mongodb" }, "unknown kind"},
		{"dangling dependency", func(tp *Topology) { tp.Tiers[1].Services[0].DependsOn = "nosuch" }, "unknown tier"},
		{"dependency without targets", func(tp *Topology) { tp.Tiers[1].Services[0].DependsOn = "fe" }, "no lsf_target"},
		{"phase out of range", func(tp *Topology) {
			tp.Tiers[0].Services[0].Cycle = 2
			tp.Tiers[0].Services[0].Phases = []int{2}
		}, "out of range"},
		{"cycle without phases", func(tp *Topology) { tp.Tiers[0].Services[0].Cycle = 3 }, "phases"},
		{"phases without cycle", func(tp *Topology) { tp.Tiers[0].Services[0].Phases = []int{0} }, "cycle"},
		{"duplicate service names", func(tp *Topology) { tp.Tiers[0].Services[0].Name = "ORA" }, "expands on both"},
		{"bad name verb", func(tp *Topology) { tp.Tiers[0].Services[0].Name = "ORA-%s" }, "bad name pattern"},
		{"stray percent in name", func(tp *Topology) { tp.Tiers[0].Services[0].Name = "ORA-50%" }, "bad name pattern"},
		// A depended-on lsf_target template whose cycle/phases select no
		// host must be caught at validation, not as a divide-by-zero in the
		// builder: with 2 hosts, phase 3 of a 4-cycle never fires, so the
		// fe tier's dependency pool would be empty.
		{"dependency pool selects no host", func(tp *Topology) {
			tp.Tiers[0].Services[0].Cycle = 4
			tp.Tiers[0].Services[0].Phases = []int{3}
		}, "no lsf_target"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := validTopo()
			c.mutate(&topo)
			err := topo.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if _, nerr := NewSite(topo); nerr == nil {
				t.Error("NewSite accepted the invalid topology")
			}
		})
	}
}

// TestNoBatchTargetsIsLegal pins that a topology without any LSF target
// builds and runs (the batch workload idles; interactive load still
// applies).
func TestNoBatchTargetsIsLegal(t *testing.T) {
	topo := Topology{
		Name: "feeds-only", Geo: "UK",
		Tiers: []Tier{
			{Name: "tx", Role: "transaction", Hosts: 2, IPBlock: "10.3.0",
				Hardware: []string{"E450"},
				Services: []ServiceTemplate{
					{Kind: "feedhandler", Name: "FEED-%03d", Port: 7000, PortStep: 1},
				}},
		},
	}
	site, err := NewSite(topo, WithSeed(1), WithNoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(simclock.Day); err != nil {
		t.Fatal(err)
	}
	if site.Report().JobsDone != 0 {
		t.Error("no targets means no batch jobs")
	}
}

// TestTopologyJSONRoundTrip pins that a topology survives the canonical
// JSON form unchanged — the contract behind "a JSON-loaded topology is
// the Go-declared one".
func TestTopologyJSONRoundTrip(t *testing.T) {
	for _, topo := range []Topology{PaperTopology(), SmallTopology(), WebFarmTopology(), ComputeFarmTopology(), validTopo()} {
		js, err := topo.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", topo.Name, err)
		}
		back, err := LoadTopology(strings.NewReader(string(js)))
		if err != nil {
			t.Fatalf("%s: load: %v", topo.Name, err)
		}
		if !reflect.DeepEqual(topo, back) {
			t.Errorf("%s: round trip changed the topology:\n%+v\n%+v", topo.Name, topo, back)
		}
	}
}

func TestLoadTopologyRejectsUnknownFields(t *testing.T) {
	js := `{"name": "x", "geo": "UK", "tiers": [], "hardwares": ["E10K"]}`
	if _, err := LoadTopology(strings.NewReader(js)); err == nil {
		t.Error("unknown JSON field should be rejected")
	}
}

func TestLoadTopologyRejectsTrailingData(t *testing.T) {
	js, err := validTopo().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(strings.NewReader(string(js) + `{"name":"second"}`)); err == nil {
		t.Error("trailing JSON document should be rejected")
	}
}

func TestLoadTopologyFixture(t *testing.T) {
	topo, err := LoadTopologyFile("testdata/topology-edge.json")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "edge-cache" || len(topo.Tiers) != 3 {
		t.Fatalf("fixture decoded wrong: %+v", topo)
	}
	site, err := NewSite(topo, WithSeed(3), WithMode(ModeAgents))
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(simclock.Day); err != nil {
		t.Fatal(err)
	}
	if got := len(site.DC.ByRole(cluster.RoleFrontEnd)); got != 12 {
		t.Errorf("edge-cache front-end hosts = %d, want 12 (cache 8 + fe 4)", got)
	}
	if site.Dir.Get("CACHE-001") == nil || site.Dir.Get("ORA-003") == nil {
		t.Error("fixture services missing from the directory")
	}
	if site.Report().AgentRuns == 0 {
		t.Error("agents never ran on the fixture site")
	}
}

func TestTopologyRegistry(t *testing.T) {
	for _, name := range []string{"paper", "small", "webfarm", "computefarm"} {
		topo, ok := TopologyByName(name)
		if !ok {
			t.Errorf("built-in topology %q not registered", name)
			continue
		}
		if topo.Name != name {
			t.Errorf("registry key %q holds topology named %q", name, topo.Name)
		}
	}
	names := TopologyNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("TopologyNames not sorted: %v", names)
		}
	}
	if err := RegisterTopology(Topology{Name: "broken"}); err == nil {
		t.Error("RegisterTopology should validate")
	}
	custom := validTopo()
	custom.Name = "test-custom"
	if err := RegisterTopology(custom); err != nil {
		t.Fatal(err)
	}
	if _, ok := TopologyByName("test-custom"); !ok {
		t.Error("registered topology not retrievable")
	}
}

// TestDefaultWorkloadScalesWithSite: a site's offered load is the
// default config scaled with its LSF-target pool, and keeps the
// OvernightJobs floor.
func TestDefaultWorkloadScalesWithSite(t *testing.T) {
	site, err := NewSite(SmallTopology(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	def := site.workloadConfig()
	if def.OvernightJobs < 2 {
		t.Errorf("default config lost the OvernightJobs floor: %+v", def)
	}
	want := workload.DefaultConfig().DayJobsPerHour * 6 / 100 // 6 targets on the small site
	if def.DayJobsPerHour != want {
		t.Errorf("default DayJobsPerHour = %v, want scaled %v", def.DayJobsPerHour, want)
	}
}

// TestSmallSiteSubmitsDayJobs: the small site's scaled default offers
// 0.72 day jobs/hour, below one an hour, and its default workload's
// arrival classes still submit them at their long-run rate. A
// fault-free manual week must therefore submit more than the 14 jobs
// its seven 22:00 drops carry on their own.
func TestSmallSiteSubmitsDayJobs(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeManual), WithNoFaults())
	mustRun(t, site, 7*simclock.Day)
	drops := 7 * site.workloadConfig().OvernightJobs
	if got := site.Gen.JobsSubmitted; got <= drops {
		t.Errorf("small site submitted %d jobs in a week, want more than the %d its 22:00 drops submit", got, drops)
	}
}

// TestFunctionalOptions pins that each Option lands on the Options field
// it advertises.
func TestFunctionalOptions(t *testing.T) {
	var o Options
	for _, opt := range []Option{
		WithSeed(9), WithMode(ModeAgents), WithNoFaults(),
	} {
		opt(&o)
	}
	if o.Seed != 9 || o.Mode != ModeAgents || o.Faults == nil || len(o.Faults) != 0 {
		t.Errorf("options not applied: %+v", o)
	}
	replaced := Options{Seed: 3, Mode: ModeManual}
	WithOptions(replaced)(&o)
	if !reflect.DeepEqual(o, replaced) {
		t.Errorf("WithOptions should replace wholesale: %+v", o)
	}
}

// TestNewTopologiesRun proves the two genuinely new canned sites build
// and operate: the web farm is front-end-heavy, the compute farm is
// batch-dominated, and both sustain an agent-mode run.
func TestNewTopologiesRun(t *testing.T) {
	web, err := NewSite(WebFarmTopology(), WithSeed(7), WithMode(ModeAgents))
	if err != nil {
		t.Fatal(err)
	}
	fe := len(web.DC.ByRole(cluster.RoleFrontEnd))
	db := len(web.DC.ByRole(cluster.RoleDatabase))
	if fe <= 4*db {
		t.Errorf("webfarm should be front-end-heavy: fe=%d db=%d", fe, db)
	}
	if err := web.Run(3 * simclock.Day); err != nil {
		t.Fatal(err)
	}
	if r := web.Report(); r.AgentRuns == 0 {
		t.Error("webfarm agents never ran")
	}

	farm, err := NewSite(ComputeFarmTopology(), WithSeed(7), WithMode(ModeAgents))
	if err != nil {
		t.Fatal(err)
	}
	if targets := len(farm.dbServices); targets != 20 {
		t.Errorf("computefarm LSF targets = %d, want 20", targets)
	}
	if err := farm.Run(3 * simclock.Day); err != nil {
		t.Fatal(err)
	}
	r := farm.Report()
	if r.JobsDone == 0 {
		t.Error("computefarm completed no batch jobs")
	}
	// Batch-dominated: the farm's 20-target pool offers an order of
	// magnitude more batch than the web farm's 4-target core.
	webR := web.Report()
	if r.JobsDone+r.JobsFailed <= webR.JobsDone+webR.JobsFailed {
		t.Errorf("computefarm should run more batch than webfarm: %d vs %d",
			r.JobsDone+r.JobsFailed, webR.JobsDone+webR.JobsFailed)
	}
}
