package qoscluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"repro/internal/adminsrv"
	"repro/internal/agents"
	"repro/internal/simclock"
)

// TestAgentTextDigest pins the text the agents write and push over one
// agents day at seed 7: every agent's activity log and flags, every
// host's performance logs and local DLSP, every file on the admin pair's
// shared pool, the latest DGSPL and the DLSP push count. The campaign
// goldens hash only the site report, so a changed DLSP line,
// performance-log line or pool DGSPL file would pass them unseen; this
// digest sees it. Each kind of text must be present, so an empty run
// cannot pass.
//
// The paper case runs the default agent set on the paper site (405,112
// lines when it was recorded, 5,126 of them process-log lines). The full
// case runs the full agent set on the small site, the only place the
// cpu, memory, disk, hardware, database and end-to-end agents deploy; it
// also hashes every file in each host's performance-log directory (the
// database agents' db-<service>.log, six of them at 286 lines each when
// it was recorded) and each agent's counters.
func TestAgentTextDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo Topology
		opts []Option
		full bool
		want uint64
	}{
		{name: "paper", topo: PaperTopology(), want: 0x75b7c304c0538bd7},
		{name: "small-full", topo: SmallTopology(), opts: []Option{func(o *Options) { o.AgentSet = AgentsFull }}, full: true, want: 0x5e0a337b53f8e854},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(7), WithMode(ModeAgents)}, tc.opts...)
			site := mustSite(t, tc.topo, opts...)
			mustRun(t, site, simclock.Day)
			checkAgentText(t, site, tc.full, tc.want)
		})
	}
}

func checkAgentText(t *testing.T, site *Site, full bool, want uint64) {
	t.Helper()
	h := fnv.New64a()
	counts := map[string]int{}
	hash := func(kind, name string, lines []string) {
		counts[kind] += len(lines)
		fmt.Fprintf(h, "%s %s %d\n", kind, name, len(lines))
		for _, l := range lines {
			io.WriteString(h, l)
			io.WriteString(h, "\n")
		}
	}
	for _, a := range site.Agents {
		hash("log", a.Name(), a.LogLines())
		hash("flags", a.Name(), a.Flags())
		if full {
			fmt.Fprintf(h, "counters %s %+v\n", a.Name(), a.Counters())
		}
	}
	for _, host := range site.DC.Hosts() {
		dir := agents.PerfLogDir(host.Name)
		names := []string{"os.log", "disk.log", "procs.log"}
		if full {
			names, _ = host.FS.List(dir)
		}
		for _, name := range names {
			p := dir + "/" + name
			if lines, err := host.FS.ReadLines(p); err == nil {
				kind := strings.TrimSuffix(name, ".log")
				if strings.HasPrefix(kind, "db-") {
					kind = "db"
				}
				hash(kind, p, lines)
			}
		}
		if lines, err := host.FS.ReadLines(agents.DLSPPath); err == nil {
			hash("dlsp", host.Name, lines)
		}
	}
	poolFS := site.Admin.Active().Host.FS
	names, err := poolFS.List(adminsrv.PoolMount)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		lines, err := poolFS.ReadLines(adminsrv.PoolMount + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		kind := "pool"
		if appType, ok := strings.CutPrefix(name, "dgspl-"); ok {
			kind = "dgspl"
			if _, err := site.Admin.ReadPoolDGSPL(strings.TrimSuffix(appType, ".txt")); err != nil {
				t.Errorf("pool file %s does not decode: %v", name, err)
			}
		}
		hash(kind, name, lines)
	}
	latest := site.Admin.LatestDGSPL()
	if latest == nil {
		t.Fatal("no DGSPL generated in a day")
	}
	fmt.Fprintf(h, "dgspl %d %d\n", latest.GeneratedAt, len(latest.Entries))
	for _, e := range latest.Entries {
		fmt.Fprintf(h, "%+v\n", e)
	}
	fmt.Fprintf(h, "received %d\n", site.Admin.DLSPReceived)

	kinds := []string{"log", "flags", "os", "disk", "procs", "dlsp", "pool", "dgspl"}
	if full {
		kinds = append(kinds, "db")
	}
	total := 0
	for _, kind := range kinds {
		if counts[kind] == 0 {
			t.Errorf("no %s lines: the digest pins nothing of that kind", kind)
		}
		total += counts[kind]
	}
	if site.Admin.DLSPReceived == 0 || len(latest.Entries) == 0 {
		t.Errorf("admin pair received %d DLSPs and listed %d services", site.Admin.DLSPReceived, len(latest.Entries))
	}
	if got := h.Sum64(); got != want {
		t.Errorf("agent text digest = %#x over %d lines (%v), want %#x: agent-written text moved",
			got, total, counts, want)
	}
}
