package sip

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file is the SIP parser behind ParseMessage. A message costs one
// walk over its header block and no map lookup. The start line is checked
// on the raw bytes before the Message is allocated, and a refusal there is
// a value (Reject); then the block is converted to one string the Message
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
	m, r := Decode(raw)
	return m, r.Err(raw)
}

// Decode is Parse with the refusal kept as a value. The start line is
// checked on the raw bytes before the Message is allocated, so a payload
// that is not SIP at all — binary media at a SIP port — costs no
// allocation, and its Reject is worded only if someone asks.
func Decode(raw []byte) (*Message, Reject) {
	var h head
	if r := checkHead(raw, &h); !r.OK() {
		return nil, r
	}
	m := &Message{}
	if err := parse(&h, m); err != nil {
		return nil, Reject{err: err}
	}
	return m, Reject{}
}

// Reject is why Decode refused a message. The empty-message and
// start-line refusals are a code and the offsets of the bytes their text
// quotes; a refusal from past the start line, which only malformed SIP
// reaches, arrives already worded.
type Reject struct {
	code   rejectCode
	lo, hi int // the quoted bytes are raw[lo:hi]
	err    error
}

type rejectCode uint8

const (
	rejectNone rejectCode = iota
	rejectEmpty
	rejectStartLine
	rejectStatusCode
	rejectMethod
)

// rejectFormats words each start-line code around the bytes it quotes.
var rejectFormats = [...]string{
	rejectStartLine:  "sip: bad start line %q",
	rejectStatusCode: "sip: bad status code %q",
	rejectMethod:     "sip: method %q is not a valid token",
}

// OK reports whether the message was accepted.
func (r Reject) OK() bool { return r.code == rejectNone && r.err == nil }

// Text words the refusal exactly as Parse's error does; raw must be the
// bytes Decode refused.
func (r Reject) Text(raw []byte) string {
	switch r.code {
	case rejectNone:
		if r.err == nil {
			return ""
		}
		return r.err.Error()
	case rejectEmpty:
		return "sip: empty message"
	}
	return fmt.Sprintf(rejectFormats[r.code], raw[r.lo:r.hi])
}

// Err is the refusal as the error Parse returns, nil when r accepts.
func (r Reject) Err(raw []byte) error {
	if r.code == rejectNone {
		return r.err
	}
	return errors.New(r.Text(raw))
}

// head is what checkHead learns from a message's raw bytes before
// anything is allocated: the header block (start line included), the
// body after the separator (nil when there is none), where the first
// header line starts in the block, and where the start line's fields lie
// (scanStartLine).
type head struct {
	block, body  []byte
	rest         int
	code, lo, hi int
}

// checkHead finds the header/body separator — the one scan for it a
// parse makes — and checks the start line.
func checkHead(raw []byte, h *head) Reject {
	headerEnd := bytes.Index(raw, sepCRLFCRLF)
	sepLen := 4
	if headerEnd < 0 {
		headerEnd = bytes.Index(raw, sepLFLF)
		sepLen = 2
	}
	h.block, h.body = raw, nil
	if headerEnd >= 0 {
		h.block, h.body = raw[:headerEnd], raw[headerEnd+sepLen:]
	}
	if len(h.block) == 0 {
		return Reject{code: rejectEmpty}
	}
	first, rest := nextLine(h.block)
	if len(bytes.TrimSpace(first)) == 0 {
		return Reject{code: rejectEmpty}
	}
	h.rest = len(h.block) - len(rest)
	var r Reject
	h.code, h.lo, h.hi, r = scanStartLine(first)
	return r
}

// parse fills m from a message whose head checkHead accepted.
func parse(h *head, m *Message) error {
	text := string(h.block)
	if h.code != 0 {
		m.StatusCode, m.ReasonPhrase = h.code, text[h.lo:h.hi]
	} else {
		m.Method, m.RequestURI = methodOf(text[:h.lo]), text[h.lo+1:h.hi]
	}
	if err := parseHeaders(&m.Headers, text[h.rest:]); err != nil {
		return err
	}
	body := h.body
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
// line[lo+1:hi]. The line starts the message, so the offsets a Reject
// carries index the message too.
func scanStartLine(line []byte) (code, lo, hi int, r Reject) {
	if bytes.HasPrefix(line, respPrefix) {
		rest := line[len(respPrefix):]
		sp := bytes.IndexByte(rest, ' ')
		codeEnd := len(line)
		if sp >= 0 {
			codeEnd = len(respPrefix) + sp
		}
		code, err := atoiBytes(line[len(respPrefix):codeEnd])
		if err != nil || code < 100 || code > 699 {
			return 0, 0, 0, Reject{code: rejectStatusCode, lo: len(respPrefix), hi: codeEnd}
		}
		return code, min(codeEnd+1, len(line)), len(line), Reject{}
	}
	// Request line: METHOD SP Request-URI SP SIP/2.0 (the historical
	// SplitN(line, " ", 3) shape: exactly two separating spaces).
	bad := Reject{code: rejectStartLine, hi: len(line)}
	i1 := bytes.IndexByte(line, ' ')
	if i1 < 0 {
		return 0, 0, 0, bad
	}
	rest := line[i1+1:]
	i2 := bytes.IndexByte(rest, ' ')
	if i2 < 0 {
		return 0, 0, 0, bad
	}
	f0, f1, f2 := line[:i1], rest[:i2], rest[i2+1:]
	if !bytes.Equal(f2, sipVersion) || len(f0) == 0 || len(f1) == 0 {
		return 0, 0, 0, bad
	}
	if !isTokenBytes(f0) {
		return 0, 0, 0, Reject{code: rejectMethod, hi: i1}
	}
	return 0, i1, i1 + 1 + i2, Reject{}
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
