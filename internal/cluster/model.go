// Package cluster simulates the datacentre hardware layer of the paper's
// evaluation site: Sun, HP, IBM and linux hosts with CPU, memory, disk and
// NIC resource accounting; a Unix-like process table; and vmstat/iostat/
// netstat-style measurement snapshots that the performance intelliagents
// sample.
package cluster

import "fmt"

// HardwareModel describes a server family. Power (CPUs x per-CPU speed) is
// what the paper's SLKT-driven selection compares when it prefers "a server
// of equal or higher in power than the server that failed".
type HardwareModel struct {
	Name     string  // e.g. "E10K"
	Vendor   string  // e.g. "Sun"
	CPUs     int     // CPU count
	CPUSpeed float64 // relative per-CPU speed, Ultra10 = 1.0
	MemoryMB int     // installed RAM
	MaxLoad  float64 // max sustainable utilisation fraction (vendor + expert data, per paper §3.2)
}

// Power reports the model's aggregate compute power.
func (m HardwareModel) Power() float64 { return float64(m.CPUs) * m.CPUSpeed }

func (m HardwareModel) String() string {
	return fmt.Sprintf("%s %s (%d CPU, %d MB)", m.Vendor, m.Name, m.CPUs, m.MemoryMB)
}

// The hardware families named in the paper's results section (§4). Relative
// speeds and sizes follow the era's published configurations; absolute
// accuracy is irrelevant to the reproduced results, which compare the same
// hosts before and after the agents and never an absolute speed: only the
// power ordering used by the selection heuristic matters.
var (
	ModelE10K    = HardwareModel{Name: "E10K", Vendor: "Sun", CPUs: 32, CPUSpeed: 1.2, MemoryMB: 32768, MaxLoad: 0.85}
	ModelE4500   = HardwareModel{Name: "E4500", Vendor: "Sun", CPUs: 8, CPUSpeed: 1.1, MemoryMB: 8192, MaxLoad: 0.85}
	ModelE450    = HardwareModel{Name: "E450", Vendor: "Sun", CPUs: 4, CPUSpeed: 1.0, MemoryMB: 4096, MaxLoad: 0.80}
	ModelE220R   = HardwareModel{Name: "E220R", Vendor: "Sun", CPUs: 2, CPUSpeed: 1.0, MemoryMB: 2048, MaxLoad: 0.80}
	ModelUltra10 = HardwareModel{Name: "Ultra10", Vendor: "Sun", CPUs: 1, CPUSpeed: 1.0, MemoryMB: 1024, MaxLoad: 0.75}
	ModelHPK     = HardwareModel{Name: "HP-K", Vendor: "HP", CPUs: 6, CPUSpeed: 1.05, MemoryMB: 6144, MaxLoad: 0.80}
	ModelHPT     = HardwareModel{Name: "HP-T", Vendor: "HP", CPUs: 4, CPUSpeed: 1.05, MemoryMB: 4096, MaxLoad: 0.80}
	ModelSP2     = HardwareModel{Name: "SP2", Vendor: "IBM", CPUs: 4, CPUSpeed: 0.95, MemoryMB: 2048, MaxLoad: 0.80}
	ModelLinux   = HardwareModel{Name: "linux-x86", Vendor: "commodity", CPUs: 2, CPUSpeed: 0.9, MemoryMB: 1024, MaxLoad: 0.75}
)

// Models lists every hardware family, largest first.
var Models = []HardwareModel{
	ModelE10K, ModelE4500, ModelHPK, ModelHPT, ModelE450,
	ModelSP2, ModelE220R, ModelLinux, ModelUltra10,
}

// ModelByName looks a model up by family name.
func ModelByName(name string) (HardwareModel, bool) {
	for _, m := range Models {
		if m.Name == name {
			return m, true
		}
	}
	return HardwareModel{}, false
}

// OSForModel reports the operating system the paper's site ran on each
// family.
func OSForModel(m HardwareModel) string {
	switch m.Vendor {
	case "Sun":
		return "Solaris8"
	case "HP":
		return "HP-UX11"
	case "IBM":
		return "AIX4"
	default:
		return "Linux2.4"
	}
}
