package sip

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file freezes the parser as it was before header IDs: an intern
// table for values, a map of canonical header-name spellings, and header
// fields stored as (canonical name, value) strings. It is test-only and
// never changes; FuzzParseMatchesReference holds the production parser to
// it, so a change to what the parser accepts, or to what it reads,
// shows up as a difference from this copy rather than as a quiet drift.

// refCompactForms and refCanonNames are the name tables as they were.
var (
	refCompactForms = map[string]string{
		"v": HdrVia, "f": HdrFrom, "t": HdrTo, "i": HdrCallID, "m": HdrContact,
		"c": HdrContentType, "l": HdrContentLength, "s": "Subject", "k": "Supported", "e": "Content-Encoding",
	}
	refCanonNames = map[string]string{}
)

func init() {
	for _, n := range []string{
		HdrVia, HdrFrom, HdrTo, HdrCallID, HdrCSeq, HdrContact,
		HdrMaxForwards, HdrContentType, HdrContentLength, HdrExpires,
		HdrWWWAuth, HdrAuthorization, HdrRoute, HdrRecordRoute,
		HdrUserAgent, "Subject", "Supported", "Content-Encoding",
	} {
		refCanonNames[n] = n
		refCanonNames[strings.ToLower(n)] = n
	}
	for c, full := range refCompactForms {
		refCanonNames[c] = full
		refCanonNames[strings.ToUpper(c)] = full
	}
}

func refCanonicalHeaderName(name string) string {
	if full, ok := refCanonNames[name]; ok {
		return full
	}
	lower := strings.ToLower(strings.TrimSpace(name))
	if full, ok := refCompactForms[lower]; ok {
		return full
	}
	switch lower {
	case "call-id":
		return HdrCallID
	case "cseq":
		return HdrCSeq
	case "www-authenticate":
		return HdrWWWAuth
	}
	parts := strings.Split(lower, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "-")
}

// refField and refMessage are what the reference parser produces.
type refField struct{ name, value string }

type refMessage struct {
	method       Method
	requestURI   string
	statusCode   int
	reasonPhrase string
	fields       []refField
	body         []byte
}

func (m *refMessage) get(name string) string {
	for _, f := range m.fields {
		if f.name == name {
			return f.value
		}
	}
	return ""
}

const refInternCap = 4096

type refParser struct {
	intern map[string]string
	fold   []byte
}

func newRefParser() *refParser { return &refParser{intern: make(map[string]string, 64)} }

func (p *refParser) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.intern[string(b)]; ok {
		return s
	}
	if len(p.intern) >= refInternCap {
		clear(p.intern)
	}
	s := string(b)
	p.intern[s] = s
	return s
}

func (p *refParser) canonName(b []byte) string {
	if full, ok := refCanonNames[string(b)]; ok {
		return full
	}
	return refCanonicalHeaderName(p.str(b))
}

func (p *refParser) parse(raw []byte) (*refMessage, error) {
	m := &refMessage{}
	headerEnd := bytes.Index(raw, []byte("\r\n\r\n"))
	sepLen := 4
	if headerEnd < 0 {
		headerEnd = bytes.Index(raw, []byte("\n\n"))
		sepLen = 2
	}
	var head, body []byte
	if headerEnd < 0 {
		head = raw
	} else {
		head = raw[:headerEnd]
		body = raw[headerEnd+sepLen:]
	}
	if len(head) == 0 {
		return nil, fmt.Errorf("sip: empty message")
	}
	first, rest := refNextLine(head)
	if len(bytes.TrimSpace(first)) == 0 {
		return nil, fmt.Errorf("sip: empty message")
	}
	if err := p.parseStartLine(m, first); err != nil {
		return nil, err
	}
	var nameB, valueB []byte
	havePending, folded := false, false
	for len(rest) > 0 {
		var line []byte
		line, rest = refNextLine(rest)
		if len(line) == 0 {
			continue
		}
		if line[0] == ' ' || line[0] == '\t' {
			if !havePending {
				return nil, fmt.Errorf("sip: continuation line %q without preceding header", line)
			}
			if !folded {
				p.fold = append(p.fold[:0], valueB...)
				folded = true
			}
			p.fold = append(p.fold, ' ')
			p.fold = append(p.fold, bytes.TrimSpace(line)...)
			valueB = p.fold
			continue
		}
		if havePending {
			p.addHeader(m, nameB, valueB)
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("sip: malformed header line %q", line)
		}
		nameB, valueB = line[:colon], line[colon+1:]
		havePending, folded = true, false
	}
	if havePending {
		p.addHeader(m, nameB, valueB)
	}
	if clv := m.get(HdrContentLength); clv != "" {
		cl, err := strconv.Atoi(strings.TrimSpace(clv))
		if err != nil || cl < 0 {
			return nil, fmt.Errorf("sip: bad Content-Length %q", clv)
		}
		if cl > len(body) {
			return nil, fmt.Errorf("sip: Content-Length %d exceeds body of %d bytes", cl, len(body))
		}
		body = body[:cl]
	}
	if body != nil {
		m.body = append(make([]byte, 0, len(body)), body...)
	}
	if err := refValidateMandatory(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *refParser) addHeader(m *refMessage, nameB, valueB []byte) {
	name := p.canonName(nameB)
	trimmed := bytes.TrimSpace(valueB)
	var value string
	switch name {
	case HdrVia, HdrAuthorization, HdrWWWAuth:
		value = string(trimmed)
	default:
		value = p.str(trimmed)
	}
	m.fields = append(m.fields, refField{name: name, value: value})
}

func (p *refParser) parseStartLine(m *refMessage, line []byte) error {
	if prefix := []byte("SIP/2.0 "); bytes.HasPrefix(line, prefix) {
		rest := line[len(prefix):]
		sp := bytes.IndexByte(rest, ' ')
		codeB, reasonB := rest, []byte(nil)
		if sp >= 0 {
			codeB, reasonB = rest[:sp], rest[sp+1:]
		}
		code, err := strconv.Atoi(string(codeB))
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sip: bad status code %q", codeB)
		}
		m.statusCode = code
		m.reasonPhrase = p.str(reasonB)
		return nil
	}
	i1 := bytes.IndexByte(line, ' ')
	if i1 < 0 {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	rest := line[i1+1:]
	i2 := bytes.IndexByte(rest, ' ')
	if i2 < 0 {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	f0, f1, f2 := line[:i1], rest[:i2], rest[i2+1:]
	if string(f2) != "SIP/2.0" {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	if len(f0) == 0 || len(f1) == 0 {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	if !isToken(string(f0)) {
		return fmt.Errorf("sip: method %q is not a valid token", f0)
	}
	m.method = Method(p.str(f0))
	m.requestURI = p.str(f1)
	return nil
}

// refValidateMandatory is validateMandatory as it was, over the full
// parsers (which accept exactly what the scanners accept).
func refValidateMandatory(m *refMessage) error {
	var missing []string
	for _, hdr := range []string{HdrVia, HdrFrom, HdrTo, HdrCallID, HdrCSeq} {
		if m.get(hdr) == "" {
			missing = append(missing, hdr)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("sip: missing mandatory headers: %s", strings.Join(missing, ", "))
	}
	cseq, err := ParseCSeq(m.get(HdrCSeq))
	if err != nil {
		return err
	}
	if _, err := ParseVia(m.get(HdrVia)); err != nil {
		return err
	}
	if m.statusCode == 0 {
		if cseq.Method != m.method {
			return fmt.Errorf("sip: CSeq method %s does not match request method %s", cseq.Method, m.method)
		}
		if _, err := ParseURI(m.requestURI); err != nil {
			return fmt.Errorf("sip: bad request URI: %w", err)
		}
	}
	return nil
}

func refNextLine(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return b, nil
	}
	return bytes.TrimSuffix(b[:i], []byte("\r")), b[i+1:]
}
