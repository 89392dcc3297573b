package cluster

import (
	"fmt"
	"math"
)

// VMStat is a vmstat-style snapshot of the measurements the paper's
// operating-system group collects (§3.6): scan rate, page-outs, free
// memory, run queue, CPU idle and blocked processes.
type VMStat struct {
	ScanRate     float64 // sr: pages scanned/sec, ramps with memory pressure
	PageOuts     float64 // po: pages written out/sec
	FreeMemMB    float64
	RunQueue     int
	CPUIdlePct   float64
	BlockedProcs int // waiting for I/O
}

// IOStat is an iostat-style snapshot; the paper watches asvc_t and wsvc_t
// (active/wait service times) sampled over 30-second intervals.
type IOStat struct {
	BusyPct float64 // %b
	AsvcMS  float64 // active service time, ms
	WsvcMS  float64 // wait (queue) time, ms
}

// VMStat samples the host's virtual-memory and CPU state. Memory pressure
// beyond 90% of RAM wakes the page scanner, exactly the signal the memory
// intelliagent's thresholds watch for.
func (h *Host) VMStat() VMStat {
	if h.state != HostUp {
		return VMStat{}
	}
	memFrac := h.MemUsedMB() / float64(h.Model.MemoryMB)
	var sr, po float64
	if memFrac > 0.90 {
		pressure := (memFrac - 0.90) / 0.10 // 0..1 across the last 10%
		sr = 200 + 5000*pressure
		po = 50 + 1500*pressure
	}
	util := h.CPUUtilisation()
	blocked := int(h.diskActivity * 4)
	return VMStat{
		ScanRate:     sr,
		PageOuts:     po,
		FreeMemMB:    h.MemFreeMB(),
		RunQueue:     h.RunQueue(),
		CPUIdlePct:   math.Round((1-util)*1000) / 10,
		BlockedProcs: blocked,
	}
}

// IOStat samples aggregate disk behaviour. Service times follow an M/M/1
// style blow-up as activity approaches the spindle capacity.
func (h *Host) IOStat() IOStat {
	if h.state != HostUp {
		return IOStat{}
	}
	busy := h.diskActivity / 1.5
	if busy > 0.99 {
		busy = 0.99
	}
	base := 5.0 // ms at idle
	asvc := base / (1 - busy)
	wsvc := asvc * busy * busy * 4
	return IOStat{
		BusyPct: math.Round(busy * 100),
		AsvcMS:  math.Round(asvc*10) / 10,
		WsvcMS:  math.Round(wsvc*10) / 10,
	}
}

// NICErrors samples the NIC error counter netstat -i reports, including
// injected errors: zero while the host is down.
func (h *Host) NICErrors() int {
	if h.state != HostUp {
		return 0
	}
	return h.nicErrors
}

// Datacentre is the collection of hosts at one customer site. Hosts are
// held in a dense registration-order slice with name and role maps as
// views.
type Datacentre struct {
	hosts  map[string]*Host
	order  []*Host // dense registration order
	byRole map[Role][]*Host
}

// NewDatacentre returns an empty site.
func NewDatacentre() *Datacentre {
	return &Datacentre{
		hosts:  make(map[string]*Host),
		byRole: make(map[Role][]*Host),
	}
}

// Add registers a host; duplicate names panic (a config bug).
func (d *Datacentre) Add(h *Host) {
	if _, dup := d.hosts[h.Name]; dup {
		panic(fmt.Sprintf("cluster: duplicate host %s", h.Name))
	}
	d.hosts[h.Name] = h
	d.order = append(d.order, h)
	d.byRole[h.Role] = append(d.byRole[h.Role], h)
}

// Host looks a host up by name, or nil.
func (d *Datacentre) Host(name string) *Host { return d.hosts[name] }

// Remove deregisters the named host, reporting whether it was present.
// Site reuse removes the mode-added administration hosts between trials.
func (d *Datacentre) Remove(name string) bool {
	h, ok := d.hosts[name]
	if !ok {
		return false
	}
	delete(d.hosts, name)
	d.order = removeHost(d.order, h)
	d.byRole[h.Role] = removeHost(d.byRole[h.Role], h)
	return true
}

// removeHost deletes one host from a slice, preserving order.
func removeHost(hosts []*Host, h *Host) []*Host {
	for i, x := range hosts {
		if x == h {
			return append(hosts[:i], hosts[i+1:]...)
		}
	}
	return hosts
}

// Hosts returns all hosts in registration order. The slice is a copy;
// callers may keep or reorder it.
func (d *Datacentre) Hosts() []*Host {
	return append([]*Host(nil), d.order...)
}

// ByRole returns hosts with the given role, in registration order, from
// a role index maintained on Add/Remove rather than a scan of every host.
// The slice is a copy; callers may keep or reorder it.
func (d *Datacentre) ByRole(role Role) []*Host {
	return append([]*Host(nil), d.byRole[role]...)
}
