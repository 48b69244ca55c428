package sip

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is the allocation-free read side of the four header shapes
// the IDS consumes: name-addr (From, To, Contact), CSeq, Via and the
// request-URI. ParseAddress/ParseVia/ParseURI build maps and fresh
// strings per call, which is right for the simulators that edit and
// re-serialize addresses but is most of what a monitored SIP message
// used to cost. The scanners below accept exactly the inputs those
// functions accept (FuzzSummaryMatchesParse) and report what the IDS
// reads as offsets into the header value; a Headers remembers the From,
// To and CSeq results in a few uint16s, so however many layers look at a
// message, each header is read once. The Parse* functions stay the
// builders' API and the only source of error text.

// AddrRef is what the IDS reads of a name-addr or addr-spec header
// (From, To, Contact). Every field is a substring of the header value:
// copy one (strings.Clone) before storing it beyond the message.
type AddrRef struct {
	AOR  string // URI.AOR(): "user@host", or the host alone
	Host string // URI.Host
	Tag  string // Address.Tag(): the last tag parameter, trimmed; "" when absent
}

// addrScan is scanAddress's result: offsets into the scanned value.
// user@host is contiguous in sip:user@host:port;params, so the AOR is
// one span and the host its tail.
type addrScan struct {
	aorLo, hostLo, hostHi int
	tagLo, tagHi          int
}

func (a addrScan) ref(v string) AddrRef {
	return AddrRef{AOR: v[a.aorLo:a.hostHi], Host: v[a.hostLo:a.hostHi], Tag: v[a.tagLo:a.tagHi]}
}

// trimSpace narrows v[lo:hi] the way strings.TrimSpace would.
func trimSpace(v string, lo, hi int) (int, int) {
	for lo < hi && isASCIISpace(v[lo]) {
		lo++
	}
	for lo < hi && isASCIISpace(v[hi-1]) {
		hi--
	}
	if lo < hi && (v[lo] >= utf8.RuneSelf || v[hi-1] >= utf8.RuneSelf) {
		t := strings.TrimLeftFunc(v[lo:hi], unicode.IsSpace)
		lo = hi - len(t)
		hi = lo + len(strings.TrimRightFunc(t, unicode.IsSpace))
	}
	return lo, hi
}

func isASCIISpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// scanAddress is ParseAddress without the Address.
func scanAddress(v string) (a addrScan, ok bool) {
	lo, hi := trimSpace(v, 0, len(v))
	lt := strings.IndexByte(v[lo:hi], '<')
	if lt < 0 {
		// Bare addr-spec: everything after the first ';' is header params.
		uriHi := hi
		if semi := strings.IndexByte(v[lo:hi], ';'); semi >= 0 {
			uriHi = lo + semi
			if a.tagLo, a.tagHi, ok = scanParams(v, uriHi+1, hi); !ok {
				return a, false
			}
		}
		return a, scanURI(v, lo, uriHi, &a)
	}
	gt := strings.IndexByte(v[lo:hi], '>')
	if gt < lt || !scanURI(v, lo+lt+1, lo+gt, &a) {
		return a, false
	}
	plo, phi := trimSpace(v, lo+gt+1, hi)
	if plo < phi && v[plo] == ';' {
		plo++
	}
	a.tagLo, a.tagHi, ok = scanParams(v, plo, phi)
	return a, ok
}

// scanURI is ParseURI over v[lo:hi], filling a's AOR and host spans.
func scanURI(v string, lo, hi int, a *addrScan) bool {
	if !strings.HasPrefix(v[lo:hi], "sip:") {
		return false
	}
	p := lo + len("sip:")
	a.aorLo = p
	switch at := strings.IndexByte(v[p:hi], '@'); {
	case at == 0:
		return false // empty user part
	case at > 0:
		if strings.ContainsAny(v[p:p+at], "<>") {
			return false
		}
		p += at + 1
	}
	hpHi := hi
	if semi := strings.IndexByte(v[p:hi], ';'); semi >= 0 {
		hpHi = p + semi
		if _, _, ok := scanParams(v, hpHi+1, hi); !ok {
			return false
		}
	}
	a.hostLo, a.hostHi = p, hpHi
	if colon := strings.LastIndexByte(v[p:hpHi], ':'); colon >= 0 {
		a.hostHi = p + colon
		if !validPort(v[a.hostHi+1 : hpHi]) {
			return false
		}
	}
	return a.hostHi > a.hostLo && !strings.ContainsAny(v[a.hostLo:a.hostHi], ":<>")
}

// validPort reports whether strconv.ParseUint(s, 10, 16) would succeed.
func validPort(s string) bool {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return false
		}
		if n = n*10 + int(c-'0'); n > 0xFFFF {
			return false
		}
	}
	return s != ""
}

// scanParams is parseParams over v[lo:hi] without the map: it reports
// whether the list is well formed (no "=value" without a name) and where
// the value of its last tag parameter lies (empty when there is none, or
// it has no value — Address.Tag reads "" for both).
func scanParams(v string, lo, hi int) (tagLo, tagHi int, ok bool) {
	for p := lo; p < hi; {
		end := hi
		if semi := strings.IndexByte(v[p:hi], ';'); semi >= 0 {
			end = p + semi
		}
		keyHi, valLo := end, end
		if eq := strings.IndexByte(v[p:end], '='); eq >= 0 {
			keyHi, valLo = p+eq, p+eq+1
		}
		klo, khi := trimSpace(v, p, keyHi)
		if klo == khi && keyHi < end {
			return 0, 0, false // "=value" with no name
		}
		if isTagKey(v[klo:khi]) {
			tagLo, tagHi = trimSpace(v, valLo, end)
		}
		p = end + 1
	}
	return tagLo, tagHi, true
}

// isTagKey reports whether strings.ToLower(k) == "tag". No rune outside
// ASCII lowers to 't', 'a' or 'g', so the ASCII fold is exact.
func isTagKey(k string) bool {
	return len(k) == 3 && k[0]|0x20 == 't' && k[1]|0x20 == 'a' && k[2]|0x20 == 'g'
}

// validURI reports whether ParseURI(s) would succeed.
func validURI(s string) bool {
	var a addrScan
	return scanURI(s, 0, len(s), &a)
}

// validVia reports whether ParseVia(v) would succeed.
func validVia(v string) bool {
	lo, hi := trimSpace(v, 0, len(v))
	sp := strings.IndexByte(v[lo:hi], ' ')
	if sp < 0 {
		return false
	}
	transport, found := strings.CutPrefix(v[lo:lo+sp], "SIP/2.0/")
	if !found || strings.IndexByte(transport, '/') >= 0 {
		return false
	}
	lo, hi = trimSpace(v, lo+sp+1, hi)
	if semi := strings.IndexByte(v[lo:hi], ';'); semi >= 0 {
		_, _, ok := scanParams(v, lo+semi+1, hi)
		return ok
	}
	return true
}

// nextField returns the bounds of the first whitespace-delimited field
// of v at or after i, as strings.Fields delimits them (lo == hi when
// only whitespace is left).
func nextField(v string, i int) (lo, hi int) {
	isSpaceAt := func(i int) (bool, int) {
		if c := v[i]; c < utf8.RuneSelf {
			return isASCIISpace(c), 1
		}
		r, w := utf8.DecodeRuneInString(v[i:])
		return unicode.IsSpace(r), w
	}
	for i < len(v) {
		space, w := isSpaceAt(i)
		if !space {
			break
		}
		i += w
	}
	lo = i
	for i < len(v) {
		space, w := isSpaceAt(i)
		if space {
			break
		}
		i += w
	}
	return lo, i
}

// cseqScan is scanCSeq's result: the number and where the method lies.
type cseqScan struct {
	seq          uint32
	numLo, numHi int
	mLo, mHi     int
}

// scanCSeq reads "<number> <method>". shape is false when v is not
// exactly two fields; ok additionally requires the number to fit 32 bits.
func scanCSeq(v string) (c cseqScan, shape, ok bool) {
	c.numLo, c.numHi = nextField(v, 0)
	c.mLo, c.mHi = nextField(v, c.numHi)
	if third, end := nextField(v, c.mHi); c.mLo == c.mHi || third != end {
		return c, false, false
	}
	n, err := strconv.ParseUint(v[c.numLo:c.numHi], 10, 32)
	c.seq = uint32(n)
	return c, true, err == nil
}

// The summary a Headers keeps. A ref is 0 until its header has been
// read; then bit 15 says the header is absent or does not parse, and the
// low bits are 1 + the index of the field that was read. Spans are
// offsets into that field's value. A header at index 2^15-1 or beyond,
// or a value of 64 KiB or more, is simply not remembered: it is read
// again on demand.
const (
	refBad   uint16 = 1 << 15
	maxRefIx        = int(refBad) - 2
	maxSpan         = 1<<16 - 1
)

type addrMemo struct {
	ref                      uint16
	aorOff, hostOff, hostEnd uint16
	tagOff, tagEnd           uint16
}

// summary is every remembered read of one header set: 36 bytes, no
// pointers. Any mutation of the set zeroes it.
type summary struct {
	cseq             uint32
	from, to         addrMemo
	cseqRef          uint16
	cseqOff, cseqEnd uint16 // the method
}

// remembered returns the value of the field a ref points at, or false
// when nothing usable is remembered. The ID and length checks only
// matter to a Headers whose storage was shared by value copy and then
// appended to through both copies; they turn that into a fresh read.
func (h *Headers) remembered(ref uint16, id hdrID, end uint16) (string, bool) {
	i := int(ref&^refBad) - 1
	if i < 0 || i >= len(h.fields) || h.fields[i].id != id || int(end) > len(h.fields[i].text) {
		return "", false
	}
	return h.fields[i].text, true
}

// addrRef reads the given address header through its memo.
func (h *Headers) addrRef(id hdrID, memo *addrMemo) (AddrRef, bool) {
	if memo.ref == refBad {
		return AddrRef{}, false
	}
	if v, ok := h.remembered(memo.ref, id, max(memo.hostEnd, memo.tagEnd)); ok {
		return AddrRef{AOR: v[memo.aorOff:memo.hostEnd], Host: v[memo.hostOff:memo.hostEnd], Tag: v[memo.tagOff:memo.tagEnd]}, true
	}
	i, v := h.find(id, "")
	a, ok := scanAddress(v)
	switch {
	case !ok:
		*memo = addrMemo{ref: refBad}
		return AddrRef{}, false
	case i <= maxRefIx && len(v) <= maxSpan:
		*memo = addrMemo{
			ref:    uint16(i + 1),
			aorOff: uint16(a.aorLo), hostOff: uint16(a.hostLo), hostEnd: uint16(a.hostHi),
			tagOff: uint16(a.tagLo), tagEnd: uint16(a.tagHi),
		}
	}
	return a.ref(v), true
}

// FromRef returns the AOR, host and tag of the From header, reporting
// false where From() would fail. The first call reads the header and
// remembers the result on the message (so it is a write: not for
// concurrent use on a message still being read for the first time).
func (m *Message) FromRef() (AddrRef, bool) { return m.Headers.addrRef(hdrFrom, &m.Headers.sum.from) }

// ToRef is FromRef for the To header.
func (m *Message) ToRef() (AddrRef, bool) { return m.Headers.addrRef(hdrTo, &m.Headers.sum.to) }

// ContactRef is FromRef for the first Contact header, read on every
// call: only a registration's 200 OK is ever asked for it.
func (m *Message) ContactRef() (AddrRef, bool) {
	v := m.Headers.get(hdrContact)
	a, ok := scanAddress(v)
	if !ok {
		return AddrRef{}, false
	}
	return a.ref(v), true
}

// CSeq returns the parsed CSeq header. The header is read once and the
// result remembered, as FromRef does.
func (m *Message) CSeq() (CSeq, error) {
	h := &m.Headers
	s := &h.sum
	if s.cseqRef != refBad {
		if v, ok := h.remembered(s.cseqRef, hdrCSeq, s.cseqEnd); ok {
			return CSeq{Seq: s.cseq, Method: Method(v[s.cseqOff:s.cseqEnd])}, nil
		}
		i, v := h.find(hdrCSeq, "")
		c, _, ok := scanCSeq(v)
		if ok {
			if i <= maxRefIx && len(v) <= maxSpan {
				s.cseq, s.cseqRef, s.cseqOff, s.cseqEnd = c.seq, uint16(i+1), uint16(c.mLo), uint16(c.mHi)
			}
			return CSeq{Seq: c.seq, Method: Method(v[c.mLo:c.mHi])}, nil
		}
		s.cseqRef = refBad
	}
	return ParseCSeq(h.get(hdrCSeq))
}
