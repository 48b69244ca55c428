package sip

import (
	"fmt"
	"strings"
)

// ParseMessage parses a SIP request or response from raw bytes. Header
// line folding (continuation lines beginning with space or tab) is
// unfolded. When Content-Length is present the body is truncated or
// validated against it; when absent the remainder of the buffer is the
// body. Nothing in the returned Message aliases raw (the header block
// and the body are copied), so the caller may recycle raw immediately.
func ParseMessage(raw []byte) (*Message, error) {
	var p Parser
	return p.Parse(raw)
}

// isToken reports whether s is a valid RFC 3261 token (the charset for
// methods and similar fields).
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.IndexByte("-.!%*_+`'~", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// mandatory lists the headers every SIP message must carry, in the
// order a missing-headers error names them.
var mandatory = [...]string{HdrVia, HdrFrom, HdrTo, HdrCallID, HdrCSeq}

// validateMandatory checks the headers every SIP message must carry
// (RFC 3261 section 8.1.1). Messages failing this check are what the
// paper's "incorrectly formatted SIP message" event refers to. It runs
// once per parsed message, so it reads through the allocation-free
// scanners (summary.go) and asks the full parsers only for error text;
// the CSeq it reads stays remembered on the message.
func validateMandatory(m *Message) error {
	// A header is present when its first field has a value (Get != "").
	// Bit i of seen and have stands for mandatory[i].
	var seen, have uint8
	var via string
	for i := range m.Headers.fields {
		f := &m.Headers.fields[i]
		var bit uint8
		switch f.id {
		case hdrVia:
			bit = 1 << 0
		case hdrFrom:
			bit = 1 << 1
		case hdrTo:
			bit = 1 << 2
		case hdrCallID:
			bit = 1 << 3
		case hdrCSeq:
			bit = 1 << 4
		default:
			continue
		}
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		if f.text != "" {
			have |= bit
		}
		if bit == 1<<0 {
			via = f.text
		}
	}
	if have != 1<<len(mandatory)-1 {
		var missing []string
		for i, hdr := range mandatory {
			if have&(1<<i) == 0 {
				missing = append(missing, hdr)
			}
		}
		return fmt.Errorf("sip: missing mandatory headers: %s", strings.Join(missing, ", "))
	}
	cseq, err := m.CSeq()
	if err != nil {
		return err
	}
	if !validVia(via) {
		if _, err := ParseVia(via); err != nil {
			return err
		}
	}
	if m.IsRequest() {
		if cseq.Method != m.Method {
			return fmt.Errorf("sip: CSeq method %s does not match request method %s", cseq.Method, m.Method)
		}
		if !validURI(m.RequestURI) {
			if _, err := ParseURI(m.RequestURI); err != nil {
				return fmt.Errorf("sip: bad request URI: %w", err)
			}
		}
	}
	return nil
}
