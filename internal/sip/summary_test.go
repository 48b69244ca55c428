package sip

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestMessageStaysSmall pins what a retained message costs: a retained
// event's footprint keeps its *Message (every benign BYE opens a rule
// partial that holds one), so the summary has to stay a few integers and
// a header field 24 bytes (memoizing parsed Addresses, or strings, and
// 32-byte fields each made the signalling benchmark's heap larger).
func TestMessageStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 160 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want <= 160", size)
	}
	if size := unsafe.Sizeof(summary{}); size > 40 {
		t.Errorf("unsafe.Sizeof(summary{}) = %d, want <= 40", size)
	}
	if size := unsafe.Sizeof(headerField{}); size > 24 {
		t.Errorf("unsafe.Sizeof(headerField{}) = %d, want <= 24", size)
	}
	m, err := ParseMessage(sampleInvite().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Headers.Len(); cap(m.Headers.fields) != n {
		t.Errorf("parsed message keeps %d header fields in %d slots", n, cap(m.Headers.fields))
	}
}

// TestParsedMessageOwnsItsText: the header values are substrings of one
// copy the message owns, never of the input, so overwriting the input
// after the parse changes nothing the message reads.
func TestParsedMessageOwnsItsText(t *testing.T) {
	raw := []byte("NEWFANGLED sip:bob@10.0.0.2 SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKa\r\n" +
		"From: \"Alice\" <sip:alice@10.0.0.1>;tag=1\r\nTo: <sip:bob@10.0.0.2>\r\nCall-ID: own@x\r\nCSeq: 1 NEWFANGLED\r\n" +
		"X-Extra: one\r\n two\r\nContent-Length: 5\r\n\r\nv=0\r\n")
	read := func(m *Message) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %d %q %q|", m.Method, m.RequestURI, m.StatusCode, m.ReasonPhrase, m.Body)
		m.Headers.Each(func(name, value string) { b.WriteString(name + ": " + value + "|") })
		return b.String()
	}
	m, err := ParseMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	before := read(m)
	if !strings.Contains(before, "X-Extra: one two|") {
		t.Fatalf("folded header not read: %s", before)
	}
	for i := range raw {
		raw[i] = '#'
	}
	if after := read(m); after != before {
		t.Errorf("overwriting the input changed the message:\nbefore %s\nafter  %s", before, after)
	}
}

// summaryOf reads everything a message remembers, and the same through
// the full parsers.
type summaryRead struct {
	from, to     AddrRef
	fromOK, toOK bool
	cseq         CSeq
	cseqErr      string
}

func readSummary(m *Message) (got, want summaryRead) {
	got.from, got.fromOK = m.FromRef()
	got.to, got.toOK = m.ToRef()
	var err error
	if got.cseq, err = m.CSeq(); err != nil {
		got.cseqErr = err.Error()
	}
	full := func(a Address, err error) (AddrRef, bool) {
		if err != nil {
			return AddrRef{}, false
		}
		return AddrRef{AOR: a.URI.AOR(), Host: a.URI.Host, Tag: a.Tag()}, true
	}
	want.from, want.fromOK = full(m.From())
	want.to, want.toOK = full(m.To())
	if want.cseq, err = ParseCSeq(m.Headers.Get(HdrCSeq)); err != nil {
		want.cseqErr = err.Error()
	}
	return got, want
}

// TestSummaryInvalidatedByHeaderMutation: the proxy and the endpoints
// edit messages they forward. Whatever a message remembered before an
// edit, it must read afterwards what a freshly parsed message would.
func TestSummaryInvalidatedByHeaderMutation(t *testing.T) {
	parse := func() *Message {
		m, err := ParseMessage(sampleInvite().Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(t *testing.T, m *Message) {
		t.Helper()
		got, want := readSummary(m)
		if got != want {
			t.Errorf("summary reads %+v\nfull parsers read %+v", got, want)
		}
		if again, _ := readSummary(m); again != want {
			t.Errorf("remembered summary reads %+v\nfull parsers read %+v", again, want)
		}
		fresh, err := ParseMessage(m.Marshal())
		if err != nil {
			return // a mutation made the message unparseable; nothing to compare
		}
		if ref, _ := readSummary(fresh); ref != got {
			t.Errorf("summary reads %+v\na fresh parse of the same message reads %+v", got, ref)
		}
	}
	const other = `"Mallory" <sip:mallory@evil.example:5070>;tag=zz9`
	for _, tc := range []struct {
		name   string
		mutate func(h *Headers)
	}{
		{"Set From", func(h *Headers) { h.Set(HdrFrom, other) }},
		{"Set To unparseable", func(h *Headers) { h.Set(HdrTo, "<sip:@nowhere>") }},
		{"Set CSeq", func(h *Headers) { h.Set(HdrCSeq, "77 INVITE") }},
		{"Set CSeq bad", func(h *Headers) { h.Set(HdrCSeq, "seven INVITE") }},
		{"Del then Add in the same slot", func(h *Headers) {
			// CSeq is the last mandatory header NewRequest adds; removing
			// everything after To and re-adding puts a new To where the old sat.
			for _, name := range []string{HdrCSeq, HdrCallID, HdrTo, HdrContact, HdrContentType, HdrContentLength, HdrUserAgent} {
				h.Del(name)
			}
			h.Add(HdrTo, other)
			h.Add(HdrCallID, "moved@x")
			h.Add(HdrCSeq, "2 INVITE")
		}},
		{"Del From", func(h *Headers) { h.Del(HdrFrom) }},
		{"Add a second From", func(h *Headers) { h.Add(HdrFrom, other) }},
		{"PrependVia", func(h *Headers) { h.PrependVia("SIP/2.0/UDP proxy.example:5060;branch=z9hG4bKp") }},
		{"RemoveFirstVia", func(h *Headers) { h.RemoveFirstVia() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := parse()
			check(t, m) // reads, and so remembers, the original
			tc.mutate(&m.Headers)
			check(t, m)
		})
		t.Run(tc.name+"/on a copy", func(t *testing.T) {
			m := parse()
			before, _ := readSummary(m)
			byValue := *m
			cloned := Message{Method: m.Method, RequestURI: m.RequestURI, Headers: m.Headers.Clone()}
			tc.mutate(&byValue.Headers)
			tc.mutate(&cloned.Headers)
			check(t, &byValue)
			check(t, &cloned)
			// The original neither changed nor lost what it remembered.
			check(t, m)
			if after, _ := readSummary(m); after != before {
				t.Errorf("mutating a copy changed the original: %+v, was %+v", after, before)
			}
		})
	}
}

// TestSummaryNotRememberedWhenOversized: a value of 64 KiB or more does
// not fit the summary's offsets; it is read correctly every time, just
// not remembered.
func TestSummaryNotRememberedWhenOversized(t *testing.T) {
	m := &Message{}
	m.Headers.Add(HdrFrom, `"`+strings.Repeat("x", 70000)+`" <sip:big@host.example>;tag=far`)
	m.Headers.Add(HdrCSeq, strings.Repeat(" ", 70000)+"9 BYE")
	for i := 0; i < 2; i++ {
		got, want := readSummary(m)
		if got != want || !got.fromOK || got.from.Tag != "far" || got.cseq != (CSeq{Seq: 9, Method: MethodBye}) {
			t.Fatalf("read %d: summary %+v, full parsers %+v", i, got, want)
		}
	}
	if s := m.Headers.sum; s.from.ref != 0 || s.cseqRef != 0 {
		t.Errorf("oversized values were remembered: %+v", s)
	}
	// A bad value is remembered as bad whatever its size.
	m.Headers.Set(HdrFrom, strings.Repeat("y", 70000))
	if _, ok := m.FromRef(); ok || m.Headers.sum.from.ref != refBad {
		t.Errorf("oversized unparseable From: ok %v, ref %#x", ok, m.Headers.sum.from.ref)
	}
}

// TestSummaryReadsDoNotAllocate is the point of the readers.
func TestSummaryReadsDoNotAllocate(t *testing.T) {
	raw := sampleInvite().Marshal()
	m, err := ParseMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.Headers.sum = summary{}
		if _, ok := m.FromRef(); !ok {
			t.Fatal("From rejected")
		}
		if _, ok := m.ToRef(); !ok {
			t.Fatal("To rejected")
		}
		if _, ok := m.ContactRef(); !ok {
			t.Fatal("Contact rejected")
		}
		if _, err := m.CSeq(); err != nil {
			t.Fatal(err)
		}
		if err := validateMandatory(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a message's summary from scratch: %.0f allocs, want 0", n)
	}
}
