package sip

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file is the SIP parser behind ParseMessage. A message costs one
// walk over its header block and no map lookup. The start line is checked
// on the raw bytes; then the block is converted to one string the Message
// owns, and the start-line fields and every header value are substrings
// of it (a folded value, rebuilt from its lines, is the only other copy).
// Header names resolve to a small ID by length and an ASCII case fold
// (message.go), so stored fields and lookups compare IDs, and the header
// slice is sized exactly once the walk is done. A header value
// kept beyond the message keeps the whole block alive: whoever stores one
// clones it.

// sepCRLFCRLF and sepLFLF are the header/body separators.
var (
	sepCRLFCRLF = []byte("\r\n\r\n")
	sepLFLF     = []byte("\n\n")
	sipVersion  = []byte("SIP/2.0")
	respPrefix  = []byte("SIP/2.0 ")
)

// Parser is a SIP message parser. It keeps nothing between messages, so
// the zero value is ready to use and one Parser may serve any number of
// goroutines.
type Parser struct{}

// NewParser returns a Parser.
func NewParser() *Parser { return &Parser{} }

// Parse parses a SIP message into a freshly allocated Message the caller
// owns and may retain indefinitely. Nothing in the returned Message
// aliases raw: the header block and the body are copied. Semantics
// (accepted inputs, field values, error text) are identical to the
// historical ParseMessage.
func (p *Parser) Parse(raw []byte) (*Message, error) {
	m := &Message{}
	if err := p.parse(raw, m); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *Parser) parse(raw []byte, m *Message) error {
	headerEnd := bytes.Index(raw, sepCRLFCRLF)
	sepLen := 4
	if headerEnd < 0 {
		headerEnd = bytes.Index(raw, sepLFLF)
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
		return fmt.Errorf("sip: empty message")
	}
	first, rest := nextLine(head)
	if len(bytes.TrimSpace(first)) == 0 {
		return fmt.Errorf("sip: empty message")
	}
	code, lo, hi, err := scanStartLine(first)
	if err != nil {
		return err
	}
	text := string(head)
	if code != 0 {
		m.StatusCode, m.ReasonPhrase = code, text[lo:hi]
	} else {
		m.Method, m.RequestURI = methodOf(text[:lo]), text[lo+1:hi]
	}
	if err := parseHeaders(&m.Headers, text[len(head)-len(rest):]); err != nil {
		return err
	}
	if clv := m.Headers.get(hdrContentLength); clv != "" {
		cl, err := strconv.Atoi(strings.TrimSpace(clv))
		if err != nil || cl < 0 {
			return fmt.Errorf("sip: bad Content-Length %q", clv)
		}
		if cl > len(body) {
			return fmt.Errorf("sip: Content-Length %d exceeds body of %d bytes", cl, len(body))
		}
		body = body[:cl]
	}
	if body != nil {
		m.Body = append(make([]byte, 0, len(body)), body...)
	}
	return validateMandatory(m)
}

// parseHeaders reads the header lines after the start line into h,
// unfolding continuations, in one walk: the fields collect in a stack
// buffer and are copied once into storage of exactly their number (a
// retained message should not carry spare capacity).
func parseHeaders(h *Headers, rest string) error {
	var buf [32]headerField
	fields := buf[:0]
	var name, value string
	var fold []byte // the value being unfolded, when folded
	pending, folded := false, false
	add := func() {
		v := strings.TrimSpace(value)
		if folded {
			v = string(bytes.TrimSpace(fold))
		}
		id, canon := headerKey(name)
		fields = append(fields, makeField(id, canon, v))
	}
	for len(rest) > 0 {
		var line string
		line, rest = cutLine(rest)
		if len(line) == 0 {
			continue
		}
		if line[0] == ' ' || line[0] == '\t' {
			if !pending {
				return fmt.Errorf("sip: continuation line %q without preceding header", line)
			}
			if !folded {
				fold = append(fold[:0], value...)
				folded = true
			}
			fold = append(fold, ' ')
			fold = append(fold, strings.TrimSpace(line)...)
			continue
		}
		if pending {
			add()
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return fmt.Errorf("sip: malformed header line %q", line)
		}
		name, value = line[:colon], line[colon+1:]
		pending, folded = true, false
	}
	if pending {
		add()
	}
	h.fields = append(make([]headerField, 0, len(fields)), fields...)
	return nil
}

// nextLine cuts the first line (CRLF or LF terminated, terminator and
// trailing CR stripped) off b.
func nextLine(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return b, nil
	}
	line = b[:i]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, b[i+1:]
}

// cutLine is nextLine for a string.
func cutLine(s string) (line, rest string) {
	i := strings.IndexByte(s, '\n')
	if i < 0 {
		return s, ""
	}
	line = s[:i]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, s[i+1:]
}

// scanStartLine checks a start line and says where its fields lie: for a
// response, the status code and the reason phrase at line[lo:hi]; for a
// request, code 0, the method at line[:lo] and the request-URI at
// line[lo+1:hi].
func scanStartLine(line []byte) (code, lo, hi int, err error) {
	if bytes.HasPrefix(line, respPrefix) {
		rest := line[len(respPrefix):]
		sp := bytes.IndexByte(rest, ' ')
		codeB := rest
		lo = len(line)
		if sp >= 0 {
			codeB, lo = rest[:sp], len(respPrefix)+sp+1
		}
		code, err = atoiBytes(codeB)
		if err != nil || code < 100 || code > 699 {
			return 0, 0, 0, fmt.Errorf("sip: bad status code %q", codeB)
		}
		return code, lo, len(line), nil
	}
	// Request line: METHOD SP Request-URI SP SIP/2.0 (the historical
	// SplitN(line, " ", 3) shape: exactly two separating spaces).
	i1 := bytes.IndexByte(line, ' ')
	if i1 < 0 {
		return 0, 0, 0, fmt.Errorf("sip: bad start line %q", line)
	}
	rest := line[i1+1:]
	i2 := bytes.IndexByte(rest, ' ')
	if i2 < 0 {
		return 0, 0, 0, fmt.Errorf("sip: bad start line %q", line)
	}
	f0, f1, f2 := line[:i1], rest[:i2], rest[i2+1:]
	if !bytes.Equal(f2, sipVersion) {
		return 0, 0, 0, fmt.Errorf("sip: bad start line %q", line)
	}
	if len(f0) == 0 || len(f1) == 0 {
		return 0, 0, 0, fmt.Errorf("sip: bad start line %q", line)
	}
	if !isTokenBytes(f0) {
		return 0, 0, 0, fmt.Errorf("sip: method %q is not a valid token", f0)
	}
	return 0, i1, i1 + 1 + i2, nil
}

// knownMethods are the methods a parsed message names by the package
// constant rather than by a substring of its header block.
var knownMethods = [...]Method{
	MethodInvite, MethodAck, MethodBye, MethodRegister, MethodOptions, MethodCancel, MethodMessage,
}

func methodOf(s string) Method {
	for _, m := range knownMethods {
		if string(m) == s {
			return m
		}
	}
	return Method(s)
}

// atoiBytes is strconv.Atoi for a byte view, matching its accept set for
// the 3-digit status codes SIP uses (sign included for error parity).
func atoiBytes(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, strconv.ErrSyntax
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return 0, strconv.ErrSyntax
		}
	}
	n := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, strconv.ErrSyntax
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, strconv.ErrRange
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

// isTokenBytes is isToken for a byte view.
func isTokenBytes(s []byte) bool {
	if len(s) == 0 {
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
