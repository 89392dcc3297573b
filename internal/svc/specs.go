package svc

import (
	"fmt"

	"repro/internal/simclock"
)

// Canonical specs for the application kinds at the paper's site. They hold
// what the paper's SLKTs record for each kind; instance names and ports are
// filled in per deployment.

// OracleSpec returns a spec for an Oracle database instance.
func OracleSpec(name string, port int) Spec {
	return Spec{
		Name:    name,
		Kind:    KindOracle,
		Version: "8.1.7",
		Port:    port,
		User:    "oracle",
		Components: []Component{
			{ProcName: "ora_pmon", Count: 1, CPUDemand: 0.05, MemMB: 64},
			{ProcName: "ora_smon", Count: 1, CPUDemand: 0.05, MemMB: 64},
			{ProcName: "ora_dbwr", Count: 2, CPUDemand: 0.10, MemMB: 128},
			{ProcName: "ora_lgwr", Count: 1, CPUDemand: 0.10, MemMB: 64},
			{ProcName: "tnslsnr", Count: 1, CPUDemand: 0.02, MemMB: 32},
		},
		ConnectTimeout: 30 * simclock.Second,
		BaseLatency:    200 * simclock.Time(1e6), // 200ms
		StartupTime:    3 * simclock.Minute,
	}
}

// SybaseSpec returns a spec for a Sybase database instance.
func SybaseSpec(name string, port int) Spec {
	return Spec{
		Name:    name,
		Kind:    KindSybase,
		Version: "12.0",
		Port:    port,
		User:    "sybase",
		Components: []Component{
			{ProcName: "dataserver", Count: 1, CPUDemand: 0.25, MemMB: 512},
			{ProcName: "backupserver", Count: 1, CPUDemand: 0.05, MemMB: 64},
		},
		ConnectTimeout: 30 * simclock.Second,
		BaseLatency:    180 * simclock.Time(1e6),
		StartupTime:    2 * simclock.Minute,
	}
}

// WebSpec returns a spec for a web server.
func WebSpec(name string, port int) Spec {
	return Spec{
		Name:    name,
		Kind:    KindWeb,
		Version: "1.3",
		Port:    port,
		User:    "www",
		Components: []Component{
			{ProcName: "httpd", Count: 5, CPUDemand: 0.03, MemMB: 16},
		},
		ConnectTimeout: 10 * simclock.Second,
		BaseLatency:    50 * simclock.Time(1e6),
		StartupTime:    20 * simclock.Second,
	}
}

// FrontEndSpec returns a spec for a front-end financial application GUI
// service, which depends on a database and a web tier.
func FrontEndSpec(name string, port int, deps ...string) Spec {
	return Spec{
		Name:    name,
		Kind:    KindFront,
		Version: "4.2",
		Port:    port,
		User:    "finapp",
		Components: []Component{
			{ProcName: "finapp_srv", Count: 2, CPUDemand: 0.15, MemMB: 256},
			{ProcName: "finapp_gui", Count: 1, CPUDemand: 0.05, MemMB: 128},
		},
		DependsOn:      deps,
		ConnectTimeout: 20 * simclock.Second,
		BaseLatency:    300 * simclock.Time(1e6),
		StartupTime:    1 * simclock.Minute,
	}
}

// LSFSpec returns a spec for the LSF daemons on a host.
func LSFSpec(name string) Spec {
	return Spec{
		Name:    name,
		Kind:    KindLSF,
		Version: "4.1",
		Port:    6878,
		User:    "lsfadmin",
		Components: []Component{
			{ProcName: "lim", Count: 1, CPUDemand: 0.02, MemMB: 16},
			{ProcName: "res", Count: 1, CPUDemand: 0.01, MemMB: 8},
			{ProcName: "sbatchd", Count: 1, CPUDemand: 0.02, MemMB: 16},
		},
		ConnectTimeout: 15 * simclock.Second,
		BaseLatency:    100 * simclock.Time(1e6),
		StartupTime:    30 * simclock.Second,
	}
}

// FeedSpec returns a spec for a market-data feed handler (Reuters et al.).
func FeedSpec(name string, port int) Spec {
	return Spec{
		Name:    name,
		Kind:    KindFeed,
		Version: "2.0",
		Port:    port,
		User:    "feeds",
		Components: []Component{
			{ProcName: "feedd", Count: 1, CPUDemand: 0.20, MemMB: 128},
			{ProcName: "feedcache", Count: 1, CPUDemand: 0.10, MemMB: 256},
		},
		ConnectTimeout: 10 * simclock.Second,
		BaseLatency:    30 * simclock.Time(1e6),
		StartupTime:    15 * simclock.Second,
	}
}

// SpecFor builds the canonical spec for a kind, for generic deployments.
func SpecFor(kind Kind, name string, port int) (Spec, error) {
	switch kind {
	case KindOracle:
		return OracleSpec(name, port), nil
	case KindSybase:
		return SybaseSpec(name, port), nil
	case KindWeb:
		return WebSpec(name, port), nil
	case KindFront:
		return FrontEndSpec(name, port), nil
	case KindLSF:
		return LSFSpec(name), nil
	case KindFeed:
		return FeedSpec(name, port), nil
	}
	return Spec{}, fmt.Errorf("svc: unknown kind %q", kind)
}
