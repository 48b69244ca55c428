package sip

import (
	"fmt"
	"strings"
)

// Method is a SIP request method.
type Method string

// Methods used in this codebase (RFC 3261 plus MESSAGE from RFC 3428).
const (
	MethodRegister Method = "REGISTER"
	MethodInvite   Method = "INVITE"
	MethodAck      Method = "ACK"
	MethodBye      Method = "BYE"
	MethodCancel   Method = "CANCEL"
	MethodOptions  Method = "OPTIONS"
	MethodMessage  Method = "MESSAGE"
)

// Common status codes.
const (
	StatusTrying             = 100
	StatusRinging            = 180
	StatusOK                 = 200
	StatusBadRequest         = 400
	StatusUnauthorized       = 401
	StatusForbidden          = 403
	StatusNotFound           = 404
	StatusProxyAuthRequired  = 407
	StatusRequestTimeout     = 408
	StatusBusyHere           = 486
	StatusRequestTerminated  = 487
	StatusServerError        = 500
	StatusNotImplemented     = 501
	StatusServiceUnavailable = 503
	StatusDeclined           = 603
)

var reasonPhrases = map[int]string{
	StatusTrying:             "Trying",
	StatusRinging:            "Ringing",
	StatusOK:                 "OK",
	StatusBadRequest:         "Bad Request",
	StatusUnauthorized:       "Unauthorized",
	StatusForbidden:          "Forbidden",
	StatusNotFound:           "Not Found",
	StatusProxyAuthRequired:  "Proxy Authentication Required",
	StatusRequestTimeout:     "Request Timeout",
	StatusBusyHere:           "Busy Here",
	StatusRequestTerminated:  "Request Terminated",
	StatusServerError:        "Server Internal Error",
	StatusNotImplemented:     "Not Implemented",
	StatusServiceUnavailable: "Service Unavailable",
	StatusDeclined:           "Decline",
}

// ReasonFor returns the standard reason phrase for a status code.
func ReasonFor(code int) string {
	if r, ok := reasonPhrases[code]; ok {
		return r
	}
	return "Unknown"
}

// Standard header names (canonical capitalization) used throughout.
const (
	HdrVia           = "Via"
	HdrFrom          = "From"
	HdrTo            = "To"
	HdrCallID        = "Call-ID"
	HdrCSeq          = "CSeq"
	HdrContact       = "Contact"
	HdrMaxForwards   = "Max-Forwards"
	HdrContentType   = "Content-Type"
	HdrContentLength = "Content-Length"
	HdrExpires       = "Expires"
	HdrWWWAuth       = "WWW-Authenticate"
	HdrAuthorization = "Authorization"
	HdrRoute         = "Route"
	HdrRecordRoute   = "Record-Route"
	HdrUserAgent     = "User-Agent"
)

// hdrID names one of the headers the IDS reads and the simulators write,
// so a stored field and a lookup compare a byte, not a string. hdrOther
// is every other name; such a field keeps its canonical name as text.
type hdrID uint8

const (
	hdrOther hdrID = iota
	hdrVia
	hdrFrom
	hdrTo
	hdrCallID
	hdrCSeq
	hdrContact
	hdrMaxForwards
	hdrContentType
	hdrContentLength
	hdrExpires
	hdrWWWAuth
	hdrAuthorization
	hdrRoute
	hdrRecordRoute
	hdrUserAgent
	hdrSubject
	hdrSupported
	hdrContentEncoding
	numHdrIDs
)

// hdrNames is each known header's canonical name.
var hdrNames = [numHdrIDs]string{
	hdrVia: HdrVia, hdrFrom: HdrFrom, hdrTo: HdrTo, hdrCallID: HdrCallID,
	hdrCSeq: HdrCSeq, hdrContact: HdrContact, hdrMaxForwards: HdrMaxForwards,
	hdrContentType: HdrContentType, hdrContentLength: HdrContentLength,
	hdrExpires: HdrExpires, hdrWWWAuth: HdrWWWAuth, hdrAuthorization: HdrAuthorization,
	hdrRoute: HdrRoute, hdrRecordRoute: HdrRecordRoute, hdrUserAgent: HdrUserAgent,
	hdrSubject: "Subject", hdrSupported: "Supported", hdrContentEncoding: "Content-Encoding",
}

// compactIDs maps each RFC 3261 compact header name, lowercase, to its ID.
var compactIDs = [256]hdrID{
	'v': hdrVia, 'f': hdrFrom, 't': hdrTo, 'i': hdrCallID, 'm': hdrContact,
	'c': hdrContentType, 'l': hdrContentLength, 's': hdrSubject, 'k': hdrSupported, 'e': hdrContentEncoding,
}

// hdrsByLen lists the known IDs by the length of their name.
var hdrsByLen [len("Content-Encoding") + 1][]hdrID

func init() {
	for id := hdrVia; id < numHdrIDs; id++ {
		n := len(hdrNames[id])
		hdrsByLen[n] = append(hdrsByLen[n], id)
	}
}

// lookupHeader resolves a known header name, in any ASCII case, or a
// compact form to its ID, and anything else to hdrOther. Every spelling
// it resolves canonicalizes to hdrNames[id]; the rest (a name with
// surrounding space, a non-ASCII case fold) is left to
// CanonicalHeaderName's folding code.
func lookupHeader(name string) hdrID {
	if len(name) == 1 {
		return compactIDs[lowerASCII(name[0])]
	}
	if len(name) >= len(hdrsByLen) {
		return hdrOther
	}
next:
	for _, id := range hdrsByLen[len(name)] {
		known := hdrNames[id]
		for i := 0; i < len(name); i++ {
			if lowerASCII(name[i]) != lowerASCII(known[i]) {
				continue next
			}
		}
		return id
	}
	return hdrOther
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// headerKey resolves a header name to what a field of that name stores:
// a known ID, or hdrOther and the canonical name.
func headerKey(name string) (hdrID, string) {
	if id := lookupHeader(name); id != hdrOther {
		return id, ""
	}
	canon := foldHeaderName(name)
	if id := lookupHeader(canon); id != hdrOther {
		return id, ""
	}
	return hdrOther, canon
}

// CanonicalHeaderName normalizes a header name: compact forms expand and
// case is folded to the usual SIP capitalization.
func CanonicalHeaderName(name string) string {
	if id := lookupHeader(name); id != hdrOther {
		return hdrNames[id]
	}
	return foldHeaderName(name)
}

// foldHeaderName is CanonicalHeaderName for a name lookupHeader does not
// resolve.
func foldHeaderName(name string) string {
	lower := strings.ToLower(strings.TrimSpace(name))
	if len(lower) == 1 && compactIDs[lower[0]] != hdrOther {
		return hdrNames[compactIDs[lower[0]]]
	}
	// Special cases whose canonical form is not Title-Case-By-Dash.
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

// headerField is one header line in 24 bytes. For a known header, text
// is the value; for any other, the canonical name followed by the value.
type headerField struct {
	text    string
	id      hdrID
	nameLen uint32 // hdrOther only: the length of the name in text
}

// makeField builds the field a header of the given key and value stores.
func makeField(id hdrID, canon, value string) headerField {
	if id != hdrOther {
		return headerField{text: value, id: id}
	}
	return headerField{text: canon + value, nameLen: uint32(len(canon))}
}

func (f *headerField) name() string {
	if f.id != hdrOther {
		return hdrNames[f.id]
	}
	return f.text[:f.nameLen]
}

func (f *headerField) value() string { return f.text[f.nameLen:] }

// is reports whether the field carries the header headerKey resolved to
// id and canon.
func (f *headerField) is(id hdrID, canon string) bool {
	return f.id == id && (id != hdrOther || f.text[:f.nameLen] == canon)
}

// Headers is an ordered collection of SIP header fields. The zero value
// is an empty header set ready for use.
//
// Fields already in the set are never overwritten in place — Add writes
// past the end, everything else builds a new slice — so a Headers copied
// by value keeps reading what it read before, and so does its summary.
type Headers struct {
	fields []headerField
	// sum remembers what FromRef, ToRef and CSeq read (summary.go). Every
	// method that changes the set zeroes it.
	sum summary
}

// Add appends a header field.
func (h *Headers) Add(name, value string) {
	h.sum = summary{}
	id, canon := headerKey(name)
	h.fields = append(h.fields, makeField(id, canon, value))
}

// Set replaces all fields with the given name by a single field.
func (h *Headers) Set(name, value string) {
	h.Del(name)
	h.Add(name, value)
}

// Del removes all fields with the given name.
func (h *Headers) Del(name string) {
	id, canon := headerKey(name)
	h.sum = summary{}
	out := make([]headerField, 0, len(h.fields))
	for _, f := range h.fields {
		if !f.is(id, canon) {
			out = append(out, f)
		}
	}
	h.fields = out
}

// Get returns the first value of the named header, or "".
func (h *Headers) Get(name string) string {
	_, v := h.find(headerKey(name))
	return v
}

// get is Get for a known header.
func (h *Headers) get(id hdrID) string {
	_, v := h.find(id, "")
	return v
}

// find returns the index and value of the first field carrying the
// header headerKey resolved to id and canon, or -1 and "".
func (h *Headers) find(id hdrID, canon string) (int, string) {
	for i := range h.fields {
		if f := &h.fields[i]; f.is(id, canon) {
			return i, f.value()
		}
	}
	return -1, ""
}

// Values returns all values of the named header in order.
func (h *Headers) Values(name string) []string {
	id, canon := headerKey(name)
	var vals []string
	for i := range h.fields {
		if f := &h.fields[i]; f.is(id, canon) {
			vals = append(vals, f.value())
		}
	}
	return vals
}

// Count returns how many fields carry the given name, without
// materializing their values (the allocation-free form of len(Values)).
func (h *Headers) Count(name string) int {
	id, canon := headerKey(name)
	n := 0
	for i := range h.fields {
		if h.fields[i].is(id, canon) {
			n++
		}
	}
	return n
}

// Len returns the number of header fields.
func (h *Headers) Len() int { return len(h.fields) }

// Clone returns a deep copy (which remembers nothing yet).
func (h *Headers) Clone() Headers {
	return Headers{fields: append([]headerField(nil), h.fields...)}
}

// Each calls fn for every field in order.
func (h *Headers) Each(fn func(name, value string)) {
	for i := range h.fields {
		f := &h.fields[i]
		fn(f.name(), f.value())
	}
}

// PrependVia inserts a Via value before existing Via fields (proxy
// behavior when forwarding a request).
func (h *Headers) PrependVia(value string) {
	h.sum = summary{}
	via := headerField{text: value, id: hdrVia}
	fields := make([]headerField, 0, len(h.fields)+1)
	inserted := false
	for _, f := range h.fields {
		if !inserted && f.id == hdrVia {
			fields = append(fields, via)
			inserted = true
		}
		fields = append(fields, f)
	}
	if !inserted {
		fields = append([]headerField{via}, fields...)
	}
	h.fields = fields
}

// RemoveFirstVia deletes the topmost Via field (proxy behavior when
// forwarding a response).
func (h *Headers) RemoveFirstVia() {
	for i, f := range h.fields {
		if f.id == hdrVia {
			h.sum = summary{}
			h.fields = append(h.fields[:i:i], h.fields[i+1:]...)
			return
		}
	}
}

// Message is a SIP request or response. A request has Method set; a
// response has StatusCode set.
type Message struct {
	// Request start line.
	Method     Method
	RequestURI string

	// Response start line.
	StatusCode   int
	ReasonPhrase string

	Headers Headers
	Body    []byte
}

// IsRequest reports whether m is a request.
func (m *Message) IsRequest() bool { return m.Method != "" && m.StatusCode == 0 }

// IsResponse reports whether m is a response.
func (m *Message) IsResponse() bool { return m.StatusCode != 0 }

// CallID returns the Call-ID header value.
func (m *Message) CallID() string { return m.Headers.get(hdrCallID) }

// From returns the parsed From header. (The IDS reads FromRef, ToRef and
// ContactRef instead: same accept set, no Address built.)
func (m *Message) From() (Address, error) { return ParseAddress(m.Headers.get(hdrFrom)) }

// To returns the parsed To header.
func (m *Message) To() (Address, error) { return ParseAddress(m.Headers.get(hdrTo)) }

// Contact returns the parsed first Contact header.
func (m *Message) Contact() (Address, error) { return ParseAddress(m.Headers.get(hdrContact)) }

// CSeq is a parsed CSeq header.
type CSeq struct {
	Seq    uint32
	Method Method
}

// String serializes the CSeq value.
func (c CSeq) String() string { return fmt.Sprintf("%d %s", c.Seq, c.Method) }

// ParseCSeq parses a CSeq header value: exactly two whitespace-separated
// fields, the first a 32-bit decimal number.
func ParseCSeq(v string) (CSeq, error) {
	c, shape, ok := scanCSeq(v)
	switch {
	case !shape:
		return CSeq{}, fmt.Errorf("sip: bad CSeq %q", v)
	case !ok:
		return CSeq{}, fmt.Errorf("sip: bad CSeq number %q", v[c.numLo:c.numHi])
	}
	return CSeq{Seq: c.seq, Method: Method(v[c.mLo:c.mHi])}, nil
}

// Via is a parsed Via header value.
type Via struct {
	Transport string // "UDP"
	SentBy    string // host[:port]
	Params    map[string]string
}

// ParseVia parses one Via header value, e.g.
// "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK776asdhds".
func ParseVia(v string) (Via, error) {
	parts := strings.SplitN(strings.TrimSpace(v), " ", 2)
	if len(parts) != 2 {
		return Via{}, fmt.Errorf("sip: bad Via %q", v)
	}
	proto := strings.Split(parts[0], "/")
	if len(proto) != 3 || proto[0] != "SIP" || proto[1] != "2.0" {
		return Via{}, fmt.Errorf("sip: bad Via protocol %q", parts[0])
	}
	rest := strings.TrimSpace(parts[1])
	sentBy := rest
	var params map[string]string
	if semi := strings.IndexByte(rest, ';'); semi >= 0 {
		sentBy = rest[:semi]
		var err error
		params, err = parseParams(rest[semi+1:])
		if err != nil {
			return Via{}, fmt.Errorf("sip: bad Via params in %q: %w", v, err)
		}
	}
	return Via{Transport: proto[2], SentBy: sentBy, Params: params}, nil
}

// String serializes the Via value.
func (v Via) String() string {
	return "SIP/2.0/" + v.Transport + " " + v.SentBy + formatParams(v.Params)
}

// Branch returns the branch parameter, or "".
func (v Via) Branch() string { return v.Params["branch"] }

// TopVia returns the parsed first Via header of the message.
func (m *Message) TopVia() (Via, error) {
	return ParseVia(m.Headers.get(hdrVia))
}

// Marshal serializes the message with a correct Content-Length.
func (m *Message) Marshal() []byte {
	var b strings.Builder
	if m.IsRequest() {
		fmt.Fprintf(&b, "%s %s SIP/2.0\r\n", m.Method, m.RequestURI)
	} else {
		reason := m.ReasonPhrase
		if reason == "" {
			reason = ReasonFor(m.StatusCode)
		}
		fmt.Fprintf(&b, "SIP/2.0 %d %s\r\n", m.StatusCode, reason)
	}
	wroteCL := false
	m.Headers.Each(func(name, value string) {
		if name == HdrContentLength {
			if wroteCL {
				return
			}
			wroteCL = true
			fmt.Fprintf(&b, "%s: %d\r\n", HdrContentLength, len(m.Body))
			return
		}
		fmt.Fprintf(&b, "%s: %s\r\n", name, value)
	})
	if !wroteCL {
		fmt.Fprintf(&b, "%s: %d\r\n", HdrContentLength, len(m.Body))
	}
	b.WriteString("\r\n")
	b.Write(m.Body)
	return []byte(b.String())
}

// String returns a compact one-line description for logs.
func (m *Message) String() string {
	if m.IsRequest() {
		return fmt.Sprintf("%s %s (Call-ID %s)", m.Method, m.RequestURI, m.CallID())
	}
	return fmt.Sprintf("%d %s (Call-ID %s)", m.StatusCode, m.ReasonPhrase, m.CallID())
}
