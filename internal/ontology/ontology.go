// Package ontology implements the paper's ISSL, DLSP and DGSPL ontology
// families (§3.1) as flat ASCII, pipe-delimited text exactly in the spirit
// of the original: "all ontologies, templates, files and logs produced are
// flat ASCII files generated by I/O Unix pipes, readable by most Unix
// tools and human administrators".
//
// Static ontologies are maintained by hand and represent the constraints
// in the agents' causal reasoning; dynamic ontologies (DLSP, DGSPL) are
// generated at run time from the static ones plus observation. Of the two
// static families, the ISSL is written to the administration pool as
// text. The fourth family, the SLKT (what a server should run: ports,
// process names and counts, start order and dependencies), is the
// simulator's svc.Spec, which the agents read directly; no run writes it
// as text.
//
// The dynamic ontologies are written every few simulated minutes on every
// host, so their encoders append into a buffer the caller owns and their
// decoders slice fields out of the text instead of copying them.
package ontology

import (
	"fmt"
	"strconv"
	"strings"
)

// appendEscaped appends s with the codecs' metacharacters escaped: the
// codecs are line- and pipe-delimited, so '|' becomes `\p`, a newline `\n`
// and the escape byte itself `\\`. Runs without a metacharacter are copied
// in one piece.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\\':
			esc = '\\'
		case '|':
			esc = 'p'
		case '\n':
			esc = 'n'
		default:
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, '\\', esc)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// escape returns s escaped as appendEscaped would append it, or s itself
// when it holds no metacharacter.
func escape(s string) string {
	if !strings.ContainsAny(s, "\\|\n") {
		return s
	}
	return string(appendEscaped(nil, s))
}

// unescape restores an escaped field. A field without an escape byte — the
// machine-written profiles' common case — is returned as it is, so decoded
// strings slice the text they came from.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'p':
			b.WriteByte('|')
		case 'n':
			b.WriteByte('\n')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// appendField, appendInt and appendFloat append one '|'-led field of a
// record.
func appendField(b []byte, s string) []byte { return appendEscaped(append(b, '|'), s) }

func appendInt(b []byte, n int64) []byte { return strconv.AppendInt(append(b, '|'), n, 10) }

func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(append(b, '|'), f, 'g', -1, 64)
}

// AppendLines appends the newline-separated lines of text to dst, each a
// substring of text, and returns the extended slice. It inverts the
// encoders' AppendText: their lines, joined by newlines, are the text.
func AppendLines(dst []string, text string) []string {
	for {
		line, rest, more := strings.Cut(text, "\n")
		dst = append(dst, line)
		if !more {
			return dst
		}
		text = rest
	}
}

func parseInt(s, what string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("ontology: bad %s %q", what, s)
	}
	return n, nil
}

func parseFloat(s, what string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("ontology: bad %s %q", what, s)
	}
	return f, nil
}

// maxFields is the widest record a decoder reads: a DGSPL svc line.
const maxFields = 17

// splitRecord splits a pipe-delimited record into f, respecting escapes:
// each field is the raw, still-escaped text between two unescaped pipes,
// sliced from line. It returns the record's field count, which can exceed
// len(f); only the first len(f) fields are stored.
func splitRecord(line string, f *[maxFields]string) int {
	n, start := 0, 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			i++ // the escaped byte cannot end a field
		case '|':
			if n < len(f) {
				f[n] = line[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < len(f) {
		f[n] = line[start:]
	}
	return n + 1
}

func joinRecord(fields ...string) string { return strings.Join(fields, "|") }

// isComment reports whether a line is a comment or blank and should be
// skipped by decoders (human administrators annotate these files).
func isComment(line string) bool {
	t := strings.TrimSpace(line)
	return t == "" || strings.HasPrefix(t, "#")
}
