package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the compiled test binary stand in for the real qossim:
// when QOSSIM_RUN_MAIN is set the process runs main() and exits, so the
// CLI-level tests below can exec an actual qossim process — flags, exit
// codes and stderr included — without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("QOSSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQossim execs this test binary as qossim with the given arguments.
func runQossim(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "QOSSIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestCampaignRejectsUnknownTierFault: a -tierfaults tier that no
// selected site declares must fail before any trial runs, with a
// contextual message on stderr and exit status 1.
func TestCampaignRejectsUnknownTierFault(t *testing.T) {
	t.Parallel()
	stdout, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small,webfarm",
		"-trials", "1", "-days", "1", "-tierfaults", "bogus=4")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{`"bogus"`, "no selected site", "tiers:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "campaign before:") {
		t.Errorf("validation should fail before any trial output:\n%s", stderr)
	}
}

// TestCampaignAcceptsDeclaredTierFault: the same shape with a tier the
// site does declare runs to completion.
func TestCampaignAcceptsDeclaredTierFault(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a real one-trial campaign")
	}
	stdout, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "1", "-seed", "7", "-tierfaults", "db=2")
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "tierfaults=db=2") {
		t.Errorf("stdout missing the tier-faults cell label:\n%s", stdout)
	}
}

// TestCampaignRejectsBadShards: -shards outside the supported range is a
// flag error caught at matrix validation, before any trial runs.
func TestCampaignRejectsBadShards(t *testing.T) {
	t.Parallel()
	_, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "1", "-shards", "-3")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "-shards -3") {
		t.Errorf("stderr missing shard-range message:\n%s", stderr)
	}
}

// TestCampaignRejectsDuplicateCron: -cron periods that parse equal
// (5m and 300s) would fold two cells' seeds into one group, so the
// campaign is refused before any trial runs, naming the flag.
func TestCampaignRejectsDuplicateCron(t *testing.T) {
	t.Parallel()
	_, stderr, code := runQossim(t,
		"campaign", "-scenario", "ablate-cron", "-cron", "5m,300s",
		"-trials", "2", "-days", "1", "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"-cron", "duplicate"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "campaign ablate-cron:") {
		t.Errorf("validation should fail before any trial output:\n%s", stderr)
	}
}

// TestReplayMissingTrace: a trace file that does not exist fails fast
// with the path in the message and exit status 1.
func TestReplayMissingTrace(t *testing.T) {
	t.Parallel()
	missing := filepath.Join(t.TempDir(), "no-such.jsonl")
	_, stderr, code := runQossim(t, "replay", "-trace", missing)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, missing) {
		t.Errorf("stderr missing the trace path:\n%s", stderr)
	}
}

// TestReplayRequiresTraceFlag: replay without -trace is a usage error.
func TestReplayRequiresTraceFlag(t *testing.T) {
	t.Parallel()
	_, stderr, code := runQossim(t, "replay")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "usage: qossim replay") {
		t.Errorf("stderr missing usage:\n%s", stderr)
	}
}

// TestReplayMalformedTrace: a file that is not a trace, and a trace with
// a corrupt line, both fail with line-numbered diagnostics.
func TestReplayMalformedTrace(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	notTrace := filepath.Join(dir, "not-a-trace.jsonl")
	if err := os.WriteFile(notTrace, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runQossim(t, "replay", "-trace", notTrace)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"line 1", "not a qossim trace"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}

	corrupt := filepath.Join(dir, "corrupt.jsonl")
	body := `{"qossim_trace":1,"matrix":{"seeds":[7]}}` + "\n{not json\n"
	if err := os.WriteFile(corrupt, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runQossim(t, "replay", "-trace", corrupt)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"line 2", "malformed"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestReplayWrongTopologyCLI: a trace whose recorded topology fingerprint
// no longer matches the registered topology is refused before any trial
// runs.
func TestReplayWrongTopologyCLI(t *testing.T) {
	t.Parallel()
	stale := filepath.Join(t.TempDir(), "stale.jsonl")
	body := `{"qossim_trace":1,"name":"x","level":1,"matrix":{"seeds":[7],"scenarios":["year"],"sites":["small"]},"topologies":{"small":"0000000000000000"}}` + "\n" +
		`{"trial":{"index":0,"seed":7,"scenario":"year","site":"small"}}` + "\n"
	if err := os.WriteFile(stale, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runQossim(t, "replay", "-trace", stale)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "different topology") {
		t.Errorf("stderr missing the topology refusal:\n%s", stderr)
	}
}

// TestTraceFlagValidation: -tracelevel without -trace is a usage error on
// both flag sets, and -trace on a multi-campaign -ablate run is refused.
func TestTraceFlagValidation(t *testing.T) {
	t.Parallel()
	_, stderr, code := runQossim(t, "-tracelevel", "2", "latency")
	if code != 2 || !strings.Contains(stderr, "-tracelevel needs -trace") {
		t.Errorf("scenario set: exit %d, stderr:\n%s", code, stderr)
	}
	_, stderr, code = runQossim(t, "campaign", "-tracelevel", "2", "before")
	if code != 2 || !strings.Contains(stderr, "-tracelevel needs -trace") {
		t.Errorf("campaign set: exit %d, stderr:\n%s", code, stderr)
	}
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	_, stderr, code = runQossim(t, "campaign", "-trace", trace, "-ablate", "all")
	if code != 2 || !strings.Contains(stderr, "one campaign per file") {
		t.Errorf("-ablate with -trace: exit %d, stderr:\n%s", code, stderr)
	}
	_, stderr, code = runQossim(t, "-trace", trace, "fig2")
	if code != 2 || !strings.Contains(stderr, "campaign-backed") {
		t.Errorf("fig2 with -trace: exit %d, stderr:\n%s", code, stderr)
	}
	_, stderr, code = runQossim(t, "campaign", "-scenario", "fig3", "-trace", trace, "-trials", "1")
	if code != 1 || !strings.Contains(stderr, "drop -trace") {
		t.Errorf("rig scenario with -trace: exit %d, stderr:\n%s", code, stderr)
	}
}

// TestNegativeCountsRejected: a negative -days, -trials or -workers, or a
// -trials of 0, is a usage error on both flag sets, not a panic in the
// seed list or a silent fall-back to the scenario default or NumCPU.
func TestNegativeCountsRejected(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-trials", []string{"campaign", "-trials", "-2", "before"}},
		{"-trials", []string{"campaign", "-trials", "0", "-days", "1", "before"}},
		{"-trials", []string{"-trials", "0", "-days", "1", "before"}},
		{"-days", []string{"campaign", "-days", "-3", "before"}},
		{"-days", []string{"-days", "-2", "before"}},
		{"-workers", []string{"campaign", "-workers", "-3", "before"}},
		// Checked before the trace file is opened: the file does not exist.
		{"-workers", []string{"replay", "-trace", "no-such-trace.jsonl", "-workers", "-3"}},
	} {
		_, stderr, code := runQossim(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.flag) {
			t.Errorf("%v: exit %d, want 2 naming %s; stderr:\n%s", c.args, code, c.flag, stderr)
		}
		if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%v: goroutine dump on stderr:\n%s", c.args, stderr)
		}
	}
}

// TestTraceRecordReplayRoundTrip records a tiny traced campaign through
// the real CLI, replays it, and checks the two campaign JSON files are
// byte-identical — the CI trace smoke in miniature.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs two real one-trial campaigns")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	orig := filepath.Join(dir, "orig.json")
	replayed := filepath.Join(dir, "replay.json")
	_, stderr, code := runQossim(t,
		"campaign", "-scenario", "after", "-site", "small",
		"-trials", "1", "-days", "2", "-seed", "7",
		"-trace", trace, "-out", orig)
	if code != 0 {
		t.Fatalf("record exit code = %d (stderr: %s)", code, stderr)
	}
	_, stderr, code = runQossim(t, "replay", "-trace", trace, "-out", replayed)
	if code != 0 {
		t.Fatalf("replay exit code = %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "reproduced their recorded metrics exactly") {
		t.Errorf("replay confirmation missing:\n%s", stderr)
	}
	want, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("replayed campaign JSON differs from the original")
	}
}

// TestCampaignRejectsUnknownWorkload: a -workload cell that is neither a
// registered spec nor a loadable spec file fails before any trial runs.
func TestCampaignRejectsUnknownWorkload(t *testing.T) {
	t.Parallel()
	stdout, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "1", "-workload", "no-such-spec")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{`"no-such-spec"`, "not a registered spec"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestCampaignRejectsUnknownTierLoad: like -tierfaults, a -tierload tier
// no selected site declares is refused up front.
func TestCampaignRejectsUnknownTierLoad(t *testing.T) {
	t.Parallel()
	_, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "1", "-tierload", "bogus=2")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"-tierload", `"bogus"`, "no selected site"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestCampaignWorkloadFlagRuns: a two-cell workload sweep — the site's
// own generator vs the built-in flash-crowd spec — runs through the real
// CLI and labels both cells.
func TestCampaignWorkloadFlagRuns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a real two-cell campaign")
	}
	stdout, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "1", "-seed", "7",
		"-workload", ",flashcrowd", "-tierload", ";db=2")
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"workload=flashcrowd", "tierload=db=2"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing the %s cell label:\n%s", want, stdout)
		}
	}
}

// TestCampaignShardsFlagRuns: a sharded one-trial campaign completes and
// prints the same tables a serial run would (byte-identical output is
// pinned by TestShardEquivalence; this is the CLI wiring check).
func TestCampaignShardsFlagRuns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a real one-trial campaign")
	}
	serialOut, _, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "2", "-seed", "7", "-json")
	if code != 0 {
		t.Fatalf("serial run exit code = %d", code)
	}
	shardOut, stderr, code := runQossim(t,
		"campaign", "-scenario", "before", "-site", "small",
		"-trials", "1", "-days", "2", "-seed", "7", "-json", "-shards", "8")
	if code != 0 {
		t.Fatalf("sharded run exit code = %d (stderr: %s)", code, stderr)
	}
	if serialOut != shardOut {
		t.Error("campaign JSON differs between -shards 0 and -shards 8")
	}
}
