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
// paper-site agents day (seed 7): every agent's activity log and flags,
// every host's performance logs and local DLSP, every file on the admin
// pair's shared pool, the latest DGSPL and the DLSP push count. The
// campaign goldens hash only the site report, so a changed DLSP line,
// performance-log line or pool DGSPL file would pass them unseen; this
// digest sees it (405,112 lines when it was recorded, 5,126 of them
// process-log lines). Each kind of text must be present, so an empty run
// cannot pass.
func TestAgentTextDigest(t *testing.T) {
	site := mustSite(t, PaperTopology(), WithSeed(7), WithMode(ModeAgents))
	mustRun(t, site, simclock.Day)
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
	}
	for _, host := range site.DC.Hosts() {
		for _, group := range []string{"os", "disk", "procs"} {
			p := agents.PerfLogDir(host.Name) + "/" + group + ".log"
			if lines, err := host.FS.ReadLines(p); err == nil {
				hash(group, p, lines)
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

	total := 0
	for _, kind := range []string{"log", "flags", "os", "disk", "procs", "dlsp", "pool", "dgspl"} {
		if counts[kind] == 0 {
			t.Errorf("no %s lines: the digest pins nothing of that kind", kind)
		}
		total += counts[kind]
	}
	if site.Admin.DLSPReceived == 0 || len(latest.Entries) == 0 {
		t.Errorf("admin pair received %d DLSPs and listed %d services", site.Admin.DLSPReceived, len(latest.Entries))
	}
	const want = 0x75b7c304c0538bd7
	if got := h.Sum64(); got != want {
		t.Errorf("agent text digest = %#x over %d lines (%v), want %#x: agent-written text moved",
			got, total, counts, uint64(want))
	}
}
