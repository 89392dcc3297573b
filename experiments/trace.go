package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/trace"
)

// traceVersion is the trace file format version stamped on the header
// line; readers reject anything else.
const traceVersion = 1

// traceHeader is line 1 of a trace file: the campaign's identity plus a
// fingerprint of every site topology the matrix touches, so a replay can
// refuse to re-run a trace against a topology that has since changed.
type traceHeader struct {
	Version    int               `json:"qossim_trace"`
	Name       string            `json:"name,omitempty"`
	Level      int               `json:"level"`
	Matrix     json.RawMessage   `json:"matrix"`
	Topologies map[string]string `json:"topologies"`
}

// traceTrialLine introduces one trial's event block: the trial coordinate
// and the metrics the recorded run produced (replay verifies against
// them). The trial's events follow, one per line, until the next trial
// line or EOF.
type traceTrialLine struct {
	Trial   campaign.Trial     `json:"trial"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// traceCollector harvests each pooled site's recorded events keyed by
// trial index. Workers run trials concurrently, hence the lock; the
// harvested slices themselves are copies (Site.TraceEvents copies), so
// post-campaign reads need no synchronisation.
type traceCollector struct {
	mu     sync.Mutex
	events map[int][]trace.Event
}

func (c *traceCollector) harvest(s *qoscluster.Site, t campaign.Trial) {
	evs := s.TraceEvents()
	c.mu.Lock()
	c.events[t.Index] = evs
	c.mu.Unlock()
}

// RunTracedCampaign runs the matrix like campaign.Run with the pooled
// runner on exec's workers and shards, additionally recording every
// trial's decision trace at exec's trace level, and returns the campaign
// result plus the encoded trace file (exec.TracePath is not written).
// The result is byte-identical to an untraced run of the same matrix:
// tracing draws no randomness and schedules nothing.
func RunTracedCampaign(name string, m campaign.Matrix, exec Exec) (*campaign.Result, []byte, error) {
	col := &traceCollector{events: map[int][]trace.Event{}}
	res, err := campaign.Run(name, m, exec.Workers, newPooledRunFunc(exec, col))
	if err != nil {
		return nil, nil, err
	}
	if errs := res.Errs(); len(errs) > 0 {
		return res, nil, fmt.Errorf("campaign %s: %d of %d trials failed; not writing a partial trace", name, len(errs), len(res.Trials))
	}
	buf, err := encodeTrace(name, m, exec.traceLevel(), res, col)
	if err != nil {
		return res, nil, err
	}
	return res, buf, nil
}

// encodeTrace renders the trace file: one header line, then per trial (in
// matrix order) a trial line followed by its event lines. Everything is
// single-line JSON, so the file greps and streams line by line.
func encodeTrace(name string, m campaign.Matrix, level int, res *campaign.Result, col *traceCollector) ([]byte, error) {
	rawMatrix, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	topos, err := topologyFingerprints(m)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b) // Encode appends the newline each line needs
	if err := enc.Encode(traceHeader{
		Version: traceVersion, Name: name, Level: level,
		Matrix: rawMatrix, Topologies: topos,
	}); err != nil {
		return nil, err
	}
	for _, tr := range res.Trials {
		if err := enc.Encode(traceTrialLine{Trial: tr.Trial, Metrics: tr.Metrics}); err != nil {
			return nil, err
		}
		for _, e := range col.events[tr.Trial.Index] {
			if err := enc.Encode(e); err != nil {
				return nil, err
			}
		}
	}
	return b.Bytes(), nil
}

// topologyFingerprints hashes the canonical JSON of every site topology
// the matrix names (the blank default resolves to defaultSite, mirroring
// buildNamedSite). FNV-64a over topo.JSON() is plenty: the fingerprint
// detects drift, it is not a security boundary.
func topologyFingerprints(m campaign.Matrix) (map[string]string, error) {
	out := map[string]string{}
	sites := m.Sites
	if len(sites) == 0 {
		sites = []string{""}
	}
	for _, name := range sites {
		resolved := name
		if resolved == "" {
			resolved = defaultSite
		}
		if _, ok := out[resolved]; ok {
			continue
		}
		fp, err := topologyFingerprint(resolved)
		if err != nil {
			return nil, err
		}
		out[resolved] = fp
	}
	return out, nil
}

func topologyFingerprint(name string) (string, error) {
	topo, ok := qoscluster.ResolveTopology(name)
	if !ok {
		return "", fmt.Errorf("site %q: unknown topology", name)
	}
	raw, err := topo.JSON()
	if err != nil {
		return "", fmt.Errorf("site %q: %w", name, err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
