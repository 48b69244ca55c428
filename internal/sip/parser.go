package sip

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// This file is the allocation-lean SIP parser behind ParseMessage. The
// naive parser materialized a [][]byte line list, converted every header
// line to a fresh string, and grew the header slice from nil on every
// message; on the detection hot path that churn dominated per-frame cost
// (the sipgo parser demonstrates the pooled-parser idiom this follows).
// A Parser walks the raw bytes line by line, keeps header names and
// values as byte-slice views until the moment they are stored, interns
// the values that repeat across messages of a dialog (Call-ID, From/To
// with tags, URIs, CSeq), and sizes the header slice from the header
// lines it is about to read: a trail retains every Message, so spare
// capacity is paid for as long as the dialog lives.

// parserInternCap bounds a Parser's intern table. When the table fills
// (an adversary cycling unique values), it is cleared and re-warms; a
// cleared table only costs fresh string copies, never correctness.
const parserInternCap = 4096

// sepCRLFCRLF and sepLFLF are the header/body separators.
var (
	sepCRLFCRLF = []byte("\r\n\r\n")
	sepLFLF     = []byte("\n\n")
	sipVersion  = []byte("SIP/2.0")
	respPrefix  = []byte("SIP/2.0 ")
)

// Parser is a reusable SIP message parser. It is not safe for concurrent
// use; either own one per goroutine (a Distiller owns one) or borrow from
// the package pool via AcquireParser/ReleaseParser. The zero value is
// ready to use.
type Parser struct {
	intern map[string]string
	fold   []byte // scratch for unfolding header continuation lines
}

// NewParser returns a Parser with a warm-ready intern table.
func NewParser() *Parser {
	return &Parser{intern: make(map[string]string, 64)}
}

var parserPool = sync.Pool{New: func() any { return NewParser() }}

// AcquireParser borrows a Parser from the package pool.
func AcquireParser() *Parser { return parserPool.Get().(*Parser) }

// ReleaseParser returns a Parser to the package pool. The parser's intern
// table survives, which is the point: values that repeat across messages
// (Call-ID, URIs, tags) are shared instead of re-copied.
func ReleaseParser(p *Parser) { parserPool.Put(p) }

// str interns b: repeated values return the same string with no copy.
func (p *Parser) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if p.intern == nil {
		p.intern = make(map[string]string, 64)
	}
	if s, ok := p.intern[string(b)]; ok { // no-alloc map lookup
		return s
	}
	if len(p.intern) >= parserInternCap {
		clear(p.intern)
	}
	s := string(b)
	p.intern[s] = s
	return s
}

// canonName canonicalizes a header name held as bytes, allocation-free
// for every spelling in the canonNames table.
func (p *Parser) canonName(b []byte) string {
	if full, ok := canonNames[string(b)]; ok { // no-alloc map lookup
		return full
	}
	return CanonicalHeaderName(p.str(b))
}

// Parse parses a SIP message into a freshly allocated Message the caller
// owns and may retain indefinitely. Unlike the raw input, nothing in the
// returned Message aliases raw: the body is copied and header values are
// interned copies. Semantics (accepted inputs, field values, error text)
// are identical to the historical ParseMessage.
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
	// Start line.
	first, rest := nextLine(head)
	if len(bytes.TrimSpace(first)) == 0 {
		return fmt.Errorf("sip: empty message")
	}
	if err := p.parseStartLineBytes(m, first); err != nil {
		return err
	}
	// Header lines, unfolding continuations.
	m.Headers.fields = make([]headerField, 0, countHeaderLines(rest))
	var nameB, valueB []byte
	havePending, folded := false, false
	for len(rest) > 0 {
		var line []byte
		line, rest = nextLine(rest)
		if len(line) == 0 {
			continue
		}
		if line[0] == ' ' || line[0] == '\t' {
			if !havePending {
				return fmt.Errorf("sip: continuation line %q without preceding header", line)
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
			p.addHeader(&m.Headers, nameB, valueB)
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return fmt.Errorf("sip: malformed header line %q", line)
		}
		nameB, valueB = line[:colon], line[colon+1:]
		havePending, folded = true, false
	}
	if havePending {
		p.addHeader(&m.Headers, nameB, valueB)
	}
	if clv := m.Headers.Get(HdrContentLength); clv != "" {
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

// countHeaderLines counts the lines of a header block that start a
// header field: not empty, not a continuation.
func countHeaderLines(rest []byte) (n int) {
	for len(rest) > 0 {
		var line []byte
		if line, rest = nextLine(rest); len(line) > 0 && line[0] != ' ' && line[0] != '\t' {
			n++
		}
	}
	return n
}

// addHeader stores one unfolded header line. Values of headers that are
// unique per message by construction (Via branches, auth nonces) are
// copied fresh; everything else is interned because dialogs repeat them.
func (p *Parser) addHeader(h *Headers, nameB, valueB []byte) {
	name := p.canonName(nameB)
	trimmed := bytes.TrimSpace(valueB)
	var value string
	switch name {
	case HdrVia, HdrAuthorization, HdrWWWAuth:
		value = string(trimmed)
	default:
		value = p.str(trimmed)
	}
	h.fields = append(h.fields, headerField{name: name, value: value})
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

// parseStartLineBytes is parseStartLine operating on a byte view.
func (p *Parser) parseStartLineBytes(m *Message, line []byte) error {
	if bytes.HasPrefix(line, respPrefix) {
		rest := line[len(respPrefix):]
		sp := bytes.IndexByte(rest, ' ')
		codeB, reasonB := rest, []byte(nil)
		if sp >= 0 {
			codeB, reasonB = rest[:sp], rest[sp+1:]
		}
		code, err := atoiBytes(codeB)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sip: bad status code %q", codeB)
		}
		m.StatusCode = code
		m.ReasonPhrase = p.str(reasonB)
		return nil
	}
	// Request line: METHOD SP Request-URI SP SIP/2.0 (the historical
	// SplitN(line, " ", 3) shape: exactly two separating spaces).
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
	if !bytes.Equal(f2, sipVersion) {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	if len(f0) == 0 || len(f1) == 0 {
		return fmt.Errorf("sip: bad start line %q", line)
	}
	if !isTokenBytes(f0) {
		return fmt.Errorf("sip: method %q is not a valid token", f0)
	}
	m.Method = Method(p.str(f0))
	m.RequestURI = p.str(f1)
	return nil
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
