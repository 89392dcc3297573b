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
