package ontology

import (
	"fmt"
	"strings"
)

// MaxISSLEntries is the paper's stated capacity of an index static service
// list ("they can contain up to 200 entries and are manually updated").
const MaxISSLEntries = 200

// ISSLEntry is one manually-maintained index record: very basic information
// about a server or resource — IP address and services.
type ISSLEntry struct {
	Server   string
	IP       string
	Services []string
}

// ISSL is an index static service list.
type ISSL struct {
	Entries []ISSLEntry
}

// Add appends an entry, enforcing the 200-entry capacity and unique server
// names.
func (l *ISSL) Add(e ISSLEntry) error {
	if len(l.Entries) >= MaxISSLEntries {
		return fmt.Errorf("ontology: ISSL full (%d entries)", MaxISSLEntries)
	}
	if e.Server == "" {
		return fmt.Errorf("ontology: ISSL entry missing server name")
	}
	for _, x := range l.Entries {
		if x.Server == e.Server {
			return fmt.Errorf("ontology: ISSL duplicate server %s", e.Server)
		}
	}
	l.Entries = append(l.Entries, e)
	return nil
}

// Lookup finds the entry for server, or nil.
func (l *ISSL) Lookup(server string) *ISSLEntry {
	for i := range l.Entries {
		if l.Entries[i].Server == server {
			return &l.Entries[i]
		}
	}
	return nil
}

// ServersRunning returns servers whose entry lists the given service.
func (l *ISSL) ServersRunning(service string) []string {
	var out []string
	for _, e := range l.Entries {
		for _, s := range e.Services {
			if s == service {
				out = append(out, e.Server)
				break
			}
		}
	}
	return out
}

// Encode renders the list as flat ASCII lines:
//
//	server|ip|svc1,svc2,...
func (l *ISSL) Encode() []string {
	lines := []string{"# ISSL index static service list"}
	for _, e := range l.Entries {
		svcs := make([]string, len(e.Services))
		for i, s := range e.Services {
			svcs[i] = escape(s)
		}
		lines = append(lines, joinRecord(escape(e.Server), escape(e.IP), strings.Join(svcs, ",")))
	}
	return lines
}

// DecodeISSL parses lines produced by Encode (comments skipped).
func DecodeISSL(lines []string) (*ISSL, error) {
	l := &ISSL{}
	var f [maxFields]string
	for i, line := range lines {
		if isComment(line) {
			continue
		}
		n := splitRecord(line, &f)
		if n != 3 {
			return nil, fmt.Errorf("ontology: ISSL line %d: %d fields, want 3", i+1, n)
		}
		var svcs []string
		if f[2] != "" {
			for _, s := range strings.Split(f[2], ",") {
				svcs = append(svcs, unescape(s))
			}
		}
		if err := l.Add(ISSLEntry{Server: unescape(f[0]), IP: unescape(f[1]), Services: svcs}); err != nil {
			return nil, fmt.Errorf("ontology: ISSL line %d: %w", i+1, err)
		}
	}
	return l, nil
}
