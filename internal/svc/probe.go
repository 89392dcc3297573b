package svc

import (
	"fmt"

	"repro/internal/simclock"
)

// Exit codes probes return, read in the Unix shell by the agents.
const (
	ExitOK      = 0
	ExitRefused = 1   // connection refused: service not listening
	ExitError   = 2   // connected but the basic command failed
	ExitTimeout = 124 // no answer within the specialist-provided timeout
)

// ProbeResult is the outcome of attempting to use a service.
type ProbeResult struct {
	ExitCode int
	Latency  simclock.Time // how long the attempt took
	Detail   string
}

// OK reports whether the probe succeeded.
func (r ProbeResult) OK() bool { return r.ExitCode == ExitOK }

func (r ProbeResult) String() string {
	return fmt.Sprintf("exit=%d latency=%v %s", r.ExitCode, r.Latency, r.Detail)
}

// ResponseLatency models the service's current response time: the healthy
// base latency inflated by host CPU contention (queueing-style blow-up near
// saturation), by processes stacked on the run queue once the host
// saturates, and by degradation.
func (s *Service) ResponseLatency() simclock.Time {
	util := s.Host.CPUUtilisation()
	if util > 0.98 {
		util = 0.98
	}
	lat := float64(s.Spec.BaseLatency) / (1 - util)
	lat *= 1 + float64(s.Host.RunQueue())
	if s.State() == StateDegraded {
		lat *= 8
	}
	return simclock.Time(lat)
}

// Probe attempts to connect and run the kind's basic command, exactly the
// paper's health check. The result is immediate (the caller charges the
// latency to simulated time if it cares, as the agents do).
func (s *Service) Probe() ProbeResult {
	timeout := s.Spec.ConnectTimeout
	if !s.Host.Up() {
		return ProbeResult{ExitCode: ExitTimeout, Latency: timeout,
			Detail: fmt.Sprintf("host %s unreachable", s.Host.Name)}
	}
	switch s.State() {
	case StateStopped, StateCrashed:
		return ProbeResult{ExitCode: ExitRefused, Latency: 0,
			Detail: fmt.Sprintf("connect to %s:%d refused", s.Host.Name, s.Spec.Port)}
	case StateStarting:
		return ProbeResult{ExitCode: ExitRefused, Latency: 0,
			Detail: "service starting, not yet listening"}
	case StateHung:
		return ProbeResult{ExitCode: ExitTimeout, Latency: timeout,
			Detail: fmt.Sprintf("%q timed out after %v", s.Spec.Kind.ProbeCommand(), timeout)}
	}
	lat := s.ResponseLatency()
	if lat > timeout {
		return ProbeResult{ExitCode: ExitTimeout, Latency: timeout,
			Detail: fmt.Sprintf("%q exceeded timeout (%v > %v)", s.Spec.Kind.ProbeCommand(), lat, timeout)}
	}
	if !s.AllProcsPresent() {
		// Connected, but the command fails against a partially-dead
		// service (e.g. the listener is up but a required component died).
		return ProbeResult{ExitCode: ExitError, Latency: lat,
			Detail: fmt.Sprintf("%q failed: missing components %v", s.Spec.Kind.ProbeCommand(), s.MissingProcs())}
	}
	return ProbeResult{ExitCode: ExitOK, Latency: lat, Detail: "ok"}
}

// Directory is a name-indexed set of services, usable as the "all services
// in the datacentre" view the ontologies are generated from.
type Directory struct {
	byName map[string]*Service
	order  []string
	byHost map[string][]*Service // registration-order index, built on Add
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{byName: make(map[string]*Service), byHost: make(map[string][]*Service)}
}

// Add registers a service; duplicates panic (a configuration bug).
func (d *Directory) Add(s *Service) {
	if _, dup := d.byName[s.Spec.Name]; dup {
		panic("svc: duplicate service " + s.Spec.Name)
	}
	d.byName[s.Spec.Name] = s
	d.order = append(d.order, s.Spec.Name)
	d.byHost[s.Host.Name] = append(d.byHost[s.Host.Name], s)
}

// Get looks a service up by name, or nil.
func (d *Directory) Get(name string) *Service { return d.byName[name] }

// All returns services in registration order.
func (d *Directory) All() []*Service {
	out := make([]*Service, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.byName[n])
	}
	return out
}

// OnHost returns the services bound to the named host, in registration
// order. The slice is the directory's cached per-host index — hot paths
// (status agents build a DLSP from it every cron run) call this constantly,
// so it is served without allocating; callers must not mutate it.
func (d *Directory) OnHost(host string) []*Service {
	return d.byHost[host]
}

// ByKind returns services of the given kind.
func (d *Directory) ByKind(k Kind) []*Service {
	var out []*Service
	for _, s := range d.All() {
		if s.Spec.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// StartOrder returns the directory's services topologically sorted so that
// dependencies start before dependents. Cycles return an error.
func (d *Directory) StartOrder() ([]*Service, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[string]int, len(d.order))
	var out []*Service
	var visit func(name string) error
	visit = func(name string) error {
		switch colour[name] {
		case grey:
			return fmt.Errorf("svc: dependency cycle through %s", name)
		case black:
			return nil
		}
		colour[name] = grey
		s := d.byName[name]
		if s != nil {
			for _, dep := range s.Spec.DependsOn {
				if d.byName[dep] != nil {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		colour[name] = black
		if s != nil {
			out = append(out, s)
		}
		return nil
	}
	for _, n := range d.order {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
