package agents

import (
	"repro/internal/agent"
	"repro/internal/fsim"
	"repro/internal/ontology"
)

// DLSPPath is where the status agent leaves the freshest local profile.
const DLSPPath = "/logs/intelliagents/status/dlsp.txt"

// buildDLSP compiles the host's dynamic local service profile from live
// observation into p (§3.4: "its local status intelliagent ... compiles
// dynamically its local DLSP"). Every field is overwritten; the service
// list reuses p's storage.
func buildDLSP(p *ontology.DLSP, rc *agent.RunContext) {
	h := rc.Host
	clear(p.Services)
	*p = ontology.DLSP{
		Server:      h.Name,
		GeneratedAt: rc.Now,
		Model:       h.Model.Name,
		OS:          h.OS,
		CPUs:        h.Model.CPUs,
		MemoryMB:    h.Model.MemoryMB,
		CPUUtil:     h.CPUUtilisation(),
		RunQueue:    h.RunQueue(),
		MemUsedMB:   h.MemUsedMB(),
		Users:       h.UsersLoggedIn(),
		Services:    p.Services[:0],
	}
	if rc.Services != nil {
		for _, s := range rc.Services.OnHost(h.Name) {
			p.Services = append(p.Services, ontology.DLSPService{
				Name:  s.Spec.Name,
				Kind:  string(s.Spec.Kind),
				State: s.State().String(),
				Port:  s.Spec.Port,
				Conns: s.Connections(),
			})
		}
	}
}

// statusAgent is the status intelliagent's state carried from run to run:
// the profile it rebuilds, the buffer the profile's text is encoded into,
// the line slice it writes and the handle on the local copy, opened by the
// first run. A run therefore allocates one string, the text itself, which
// the local file's lines and the push both share.
type statusAgent struct {
	prof  ontology.DLSP
	buf   []byte
	lines []string
	dlsp  fsim.File
}

func (st *statusAgent) monitor(rc *agent.RunContext) []agent.Finding {
	buildDLSP(&st.prof, rc)
	st.buf = st.prof.AppendText(st.buf[:0])
	text := string(st.buf)
	st.lines = ontology.AppendLines(st.lines[:0], text)
	if st.dlsp == (fsim.File{}) {
		st.dlsp = rc.FS.Open(DLSPPath)
	}
	_ = st.dlsp.WriteLines(st.lines)
	if rc.Report != nil {
		rc.Report("dlsp", text)
	}
	// Status generation is not fault detection; service agents own
	// that. A clean run reports nothing.
	return nil
}

// NewStatusAgent builds the status intelliagent: each run it regenerates
// the DLSP, removes the stale copy (self-maintenance covers flags; old
// profiles are overwritten), stores it locally and pushes it to the
// administration servers, which assemble DGSPLs from these pushes.
//
// Before generating, it invokes the local service probes ("the local status
// intelliagent invokes local service intelliagents who attempt to connect
// to local running services") — here by reading each service's live state,
// which the service agents keep honest.
func NewStatusAgent(cfg agent.Config) (*agent.Agent, error) {
	cfg.Name = "status-" + cfg.Host.Name
	cfg.Parts = agent.Parts{
		Monitor: new(statusAgent).monitor,
	}
	return agent.New(cfg)
}
