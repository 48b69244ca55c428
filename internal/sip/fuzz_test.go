package sip

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Native fuzz targets. Under plain `go test` these run their seed corpus;
// use `go test -fuzz=FuzzParseMessage ./internal/sip` for exploration.

func FuzzParseMessage(f *testing.F) {
	f.Add([]byte("INVITE sip:bob@example.com SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:a@x>;tag=1\r\nTo: <sip:b@y>\r\nCall-ID: fz@x\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:a@x>\r\nTo: <sip:b@y>;tag=2\r\nCall-ID: fz@x\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add(sampleInvite().Marshal())
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte("REGISTER sip:r SIP/2.0\r\nl: 999999\r\n\r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseMessage(raw)
		if err != nil {
			return
		}
		// Any message that parses must re-marshal and re-parse cleanly.
		again, err := ParseMessage(m.Marshal())
		if err != nil {
			t.Fatalf("re-parse of marshaled message failed: %v\noriginal: %q", err, raw)
		}
		if again.IsRequest() != m.IsRequest() {
			t.Fatalf("request/response flipped on round trip")
		}
		if !bytes.Equal(again.Body, m.Body) {
			t.Fatalf("body changed on round trip: %q vs %q", m.Body, again.Body)
		}
	})
}

// FuzzParserReuse proves a recycled Parser never leaks state between
// messages: one long-lived parser, used for every fuzz input, must
// produce exactly the result a fresh parser does — same error text, same
// Message, header storage sized exactly.
func FuzzParserReuse(f *testing.F) {
	f.Add([]byte("INVITE sip:bob@example.com SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:a@x>;tag=1\r\nTo: <sip:b@y>\r\nCall-ID: fz@x\r\nCSeq: 1 INVITE\r\n\r\nbody"))
	f.Add([]byte("SIP/2.0 401 Unauthorized\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:a@x>\r\nTo: <sip:b@y>;tag=2\r\nCall-ID: fz@x\r\nCSeq: 1 REGISTER\r\nWWW-Authenticate: Digest realm=\"r\", nonce=\"n\"\r\n\r\n"))
	f.Add(sampleInvite().Marshal())
	f.Add([]byte("OPTIONS sip:x SIP/2.0\r\nSubject: folded\r\n continuation\r\nCall-ID: c\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	recycled := NewParser()
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantErr := NewParser().Parse(raw)
		got, gotErr := recycled.Parse(raw)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("recycled parser error mismatch: fresh=%v recycled=%v\ninput: %q", wantErr, gotErr, raw)
		case wantErr != nil:
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("recycled parser error text drifted: fresh=%q recycled=%q\ninput: %q", wantErr, gotErr, raw)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("recycled parser result drifted from fresh parse\ninput: %q\nfresh:    %+v\nrecycled: %+v", raw, want, got)
		}
		if n := want.Headers.Len(); cap(want.Headers.fields) != n {
			t.Fatalf("header storage holds %d fields in %d slots; want it sized exactly\ninput: %q", n, cap(want.Headers.fields), raw)
		}
	})
}

// fieldsParseCSeq is ParseCSeq as it was written over strings.Fields: the
// reference the field scanner is held to.
func fieldsParseCSeq(v string) (CSeq, error) {
	f := strings.Fields(v)
	if len(f) != 2 {
		return CSeq{}, fmt.Errorf("sip: bad CSeq %q", v)
	}
	n, err := strconv.ParseUint(f[0], 10, 32)
	if err != nil {
		return CSeq{}, fmt.Errorf("sip: bad CSeq number %q", f[0])
	}
	return CSeq{Seq: uint32(n), Method: Method(f[1])}, nil
}

// FuzzSummaryMatchesParse holds the allocation-free header readers to the
// full parsers: for any header value they accept exactly what
// ParseAddress, ParseURI, ParseVia and (the strings.Fields) ParseCSeq
// accept, and agree on everything the IDS reads — AOR, host, tag (last
// one wins, case-insensitive key, trimmed value), sequence number and
// method — both straight from the scanner and through a Message that
// remembers the read.
func FuzzSummaryMatchesParse(f *testing.F) {
	for _, e := range TortureCorpus() {
		for i, line := range strings.Split(string(e.Raw), "\r\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && i > 0 && name != "" {
				f.Add(strings.TrimSpace(value))
			} else if fields := strings.Fields(line); i == 0 && len(fields) > 1 {
				f.Add(fields[1])
			}
		}
	}
	for _, seed := range []string{
		`"Alice" <sip:alice@a.com:5070;transport=udp>;tag=88sja8x`, "sip:bob@b.com;tag=x",
		"<sip:@b>", "<sip:a@b:99999>", "<sip:a@b:>", "<sip:a@b:065535>", "<sip:a@b>;=x", "sip:b;tag", ">sip:a@b<", "<<>>",
		"<sip:a@b>;tag=1;TAG = 2 ;x", "<sip:a@b>tag=1", "<sip:a@b>;tag=1;tag", " \u00a0<sip:h;x=a@b;lr>\u00a0 ;\u00a0Tag\u00a0=\u00a0t\u00a0", "sip:a@b@c:1",
		"SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK776", "SIP/2.0/ h", "SIP/2.0/UDP/x h", " SIP/2.0/TCP  h ;=v", "%%%%",
		"1 INVITE", "  7\tACK\v", "1\u00a0INVITE", "1\u0085BYE\u2003", "4294967296 BYE", "-1 BYE", "1 2 3", "1", "\x85 1 \xffBYE",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m := &Message{RequestURI: s}
		m.Headers.Add(HdrCSeq, s)
		m.Headers.Add(HdrTo, s)

		addr, err := ParseAddress(s)
		scan, ok := scanAddress(s)
		if ok != (err == nil) {
			t.Fatalf("scanAddress(%q) accepts: %v; ParseAddress: %v", s, ok, err)
		}
		want := AddrRef{}
		if ok {
			want = AddrRef{AOR: addr.URI.AOR(), Host: addr.URI.Host, Tag: addr.Tag()}
			if got := scan.ref(s); got != want {
				t.Fatalf("scanAddress(%q) = %+v, ParseAddress reads %+v", s, got, want)
			}
		}
		for _, pass := range []string{"first", "remembered"} {
			if got, gotOK := m.ToRef(); gotOK != ok || got != want {
				t.Fatalf("%s ToRef of %q = %+v, %v; want %+v, %v", pass, s, got, gotOK, want, ok)
			}
		}

		if _, err := ParseURI(s); validURI(s) != (err == nil) {
			t.Fatalf("validURI(%q) = %v; ParseURI: %v", s, validURI(s), err)
		}
		if _, err := ParseVia(s); validVia(s) != (err == nil) {
			t.Fatalf("validVia(%q) = %v; ParseVia: %v", s, validVia(s), err)
		}

		wantC, wantErr := fieldsParseCSeq(s)
		check := func(who string, got CSeq, err error) {
			if got != wantC || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s of %q = %+v, %v; strings.Fields form reads %+v, %v", who, s, got, err, wantC, wantErr)
			}
		}
		got, err := ParseCSeq(s)
		check("ParseCSeq", got, err)
		for _, pass := range []string{"first Message.CSeq", "remembered Message.CSeq"} {
			got, err = m.CSeq()
			check(pass, got, err)
		}
	})
}

func FuzzParseURI(f *testing.F) {
	for _, seed := range []string{
		"sip:alice@10.0.0.1:5070;transport=udp",
		"sip:b", "sip:@", "sip:a@b:99999", "http://x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		u, err := ParseURI(s)
		if err != nil {
			return
		}
		if _, err := ParseURI(u.String()); err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", u.String(), s, err)
		}
	})
}

func FuzzParseAddress(f *testing.F) {
	for _, seed := range []string{
		`"Alice" <sip:alice@a.com>;tag=1`, "sip:bob@b.com;tag=x", "<<>>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddress(s)
		if err != nil {
			return
		}
		if _, err := ParseAddress(a.String()); err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", a.String(), s, err)
		}
	})
}

// caseVariants returns every ASCII case spelling of name.
func caseVariants(name string) []string {
	lower := strings.ToLower(name)
	var letters []int
	for i := 0; i < len(lower); i++ {
		if 'a' <= lower[i] && lower[i] <= 'z' {
			letters = append(letters, i)
		}
	}
	out := make([]string, 0, 1<<len(letters))
	for mask := 0; mask < 1<<len(letters); mask++ {
		b := []byte(lower)
		for j, i := range letters {
			if mask>>j&1 == 1 {
				b[i] -= 'a' - 'A'
			}
		}
		out = append(out, string(b))
	}
	return out
}

// knownNameSpellings is every ASCII case of every known header name and
// compact form.
func knownNameSpellings() []string {
	var all []string
	for id := hdrVia; id < numHdrIDs; id++ {
		all = append(all, caseVariants(hdrNames[id])...)
	}
	for c := range refCompactForms {
		all = append(all, caseVariants(c)...)
	}
	return all
}

// TestCanonicalHeaderNameMatchesReference: every spelling of a known name,
// and a few that only the folding code resolves, canonicalize as they did
// through the name map, and a field stored under the spelling reports
// that name.
func TestCanonicalHeaderNameMatchesReference(t *testing.T) {
	odd := []string{"Via ", " via", "\tCSeq", "K", "\u212a" /* Kelvin sign */, "x-custom-header", "", "-", "a--b", "\u0130", "Call\rID", "CALL-id ", "Ca\u017f"}
	for _, name := range append(knownNameSpellings(), odd...) {
		want := refCanonicalHeaderName(name)
		if got := CanonicalHeaderName(name); got != want {
			t.Errorf("CanonicalHeaderName(%q) = %q, the name map read %q", name, got, want)
		}
		id, canon := headerKey(name)
		f := makeField(id, canon, "v")
		if f.name() != want || f.value() != "v" {
			t.Errorf("field stored as %q holds (%q, %q), want (%q, %q)", name, f.name(), f.value(), want, "v")
		}
	}
}

// FuzzParseMatchesReference holds the parser to the frozen copy of its
// predecessor (refparser_test.go): the same accept set and error text,
// and for an accepted message the same start line, body and header
// sequence, read back through Each, Get and Count. One reference parser
// serves every input, so its intern table is as warm as it ever was.
func FuzzParseMatchesReference(f *testing.F) {
	for _, e := range TortureCorpus() {
		f.Add(e.Raw)
	}
	f.Add(sampleInvite().Marshal())
	f.Add(NewResponse(sampleInvite(), StatusOK, "t2").Marshal())
	const base = "INVITE sip:b@h SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:a@x>;tag=1\r\nTo: <sip:b@h>\r\nCall-ID: c@x\r\nCSeq: 1 INVITE\r\n"
	for _, seed := range []string{
		"OPTIONS sip:b@h SIP/2.0\r\nVia :SIP/2.0/UDP h\r\nFrom: <sip:a@x>\r\nTo: <sip:b@h>\r\nCall-ID: c\r\nCSeq: 1 OPTIONS\r\n\r\n",
		"OPTIONS sip:b@h SIP/2.0\r\nVia : SIP/2.0/UDP h\r\nf :<sip:a@x>\r\nTo: <sip:b@h>\r\nCall-ID: c\r\nCSeq: 1 OPTIONS\r\n\r\n",
		base + "\u212a: x\r\n\r\n",
		base + "\u212a: x\r\nSupported: y\r\nk: z\r\n\r\n",
		base + "Subject: folded\r\n continuation\r\n\t and more  \r\nX-Custom: a\r\n  b\r\n\r\n",
		"INVITE sip:b@h SIP/2.0\r\nVia: SIP/2.0/UDP h;\r\n branch=z9hG4bK1\r\nFrom: <sip:a@x>;\r\n\ttag=1\r\nTo: <sip:b@h>\r\nCall-ID: c@x\r\nCSeq: 1\r\n INVITE\r\n\r\n",
		"INVITE sip:b@h SIP/2.0\n\nVia: SIP/2.0/UDP h\r\nFrom: <sip:a@x>\r\nTo: <sip:b@h>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\nbody",
		"INVITE sip:b@h SIP/2.0\nVia: SIP/2.0/UDP h\nFrom: <sip:a@x>\nTo: <sip:b@h>\nCall-ID: c\nCSeq: 1 INVITE\nl: 2\n\nbody\r\n\r\n",
		"SIP/2.0 200 \r\n" + base[len("INVITE sip:b@h SIP/2.0\r\n"):] + "\r\n",
		"SIP/2.0 180\r\n" + base[len("INVITE sip:b@h SIP/2.0\r\n"):] + "Content-Length: 3\r\n\r\nabcdef",
		base + "Max-Forwards: 70\r\nX-Unknown-Header: v\r\nx-unknown-header:  w \r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	// Every ASCII case of every known name and compact form, as extra
	// header lines after a valid message, 1024 to a seed.
	spellings := knownNameSpellings()
	for len(spellings) > 0 {
		n := min(len(spellings), 1024)
		var b strings.Builder
		b.WriteString(base)
		for _, name := range spellings[:n] {
			b.WriteString(name + ": 0\r\n")
		}
		b.WriteString("\r\n")
		f.Add([]byte(b.String()))
		spellings = spellings[n:]
	}
	ref := newRefParser()
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, gotErr := NewParser().Parse(raw)
		matchReference(t, ref, raw, got, gotErr)
	})
}

// matchReference fails t unless a parse of raw came out as the frozen
// reference parser says it should: the same error text, or the same
// start line, body and header sequence, read back through Each, Get and
// Count.
func matchReference(t *testing.T, ref *refParser, raw []byte, got *Message, gotErr error) {
	t.Helper()
	want, wantErr := ref.parse(raw)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("parser error %v, reference error %v\ninput: %q", gotErr, wantErr, raw)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("parser error %q, reference error %q\ninput: %q", gotErr, wantErr, raw)
		}
		return
	}
	if got.Method != want.method || got.RequestURI != want.requestURI ||
		got.StatusCode != want.statusCode || got.ReasonPhrase != want.reasonPhrase {
		t.Fatalf("start line %q %q %d %q, reference %q %q %d %q\ninput: %q", got.Method, got.RequestURI, got.StatusCode,
			got.ReasonPhrase, want.method, want.requestURI, want.statusCode, want.reasonPhrase, raw)
	}
	if !bytes.Equal(got.Body, want.body) || (got.Body == nil) != (want.body == nil) {
		t.Fatalf("body %q, reference %q\ninput: %q", got.Body, want.body, raw)
	}
	var fields []refField
	got.Headers.Each(func(name, value string) { fields = append(fields, refField{name, value}) })
	if !reflect.DeepEqual(fields, want.fields) {
		t.Fatalf("headers %q\nreference %q\ninput: %q", fields, want.fields, raw)
	}
	// A lookup canonicalizes its argument, as it always did (for a name
	// whose canonical form is not canonical itself, even a stored name).
	counts := make(map[string]int)
	for _, fld := range want.fields {
		counts[fld.name]++
	}
	for name := range counts {
		key := refCanonicalHeaderName(name)
		if v, c := got.Headers.Get(name), got.Headers.Count(name); v != want.get(key) || c != counts[key] {
			t.Fatalf("Get/Count(%q) = %q/%d, reference %q/%d\ninput: %q", name, v, c, want.get(key), counts[key], raw)
		}
	}
}

// FuzzStartLineRejectMatchesParse holds the check Decode makes before it
// allocates a Message (checkHead) to the parse it gates: whenever the
// check refuses, ParseMessage refuses with the identical text and Decode
// hands back that same value; whenever it accepts, the parse comes out as
// the frozen reference parser's does. Seeded with what reaches a SIP port
// that is not SIP — media, keep-alives, binary start lines — beside the
// torture corpus.
func FuzzStartLineRejectMatchesParse(f *testing.F) {
	for _, e := range TortureCorpus() {
		f.Add(e.Raw)
	}
	f.Add(sampleInvite().Marshal())
	for _, seed := range []string{
		"", "\r\n", "\r\n\r\n", "\n\n", " \t\r\nINVITE sip:b@h SIP/2.0\r\n\r\n",
		"\x80\x00\x23\x28\x00\x00\x10\x00\xde\xad\x00\x01media \r\n\r\n",
		"\x81\xc9\x00\x01\x00\x00\x00\x07",
		"SIP/2.0 99 Too Low\r\n\r\n", "SIP/2.0 +200\r\n\r\n", "SIP/2.0 \r\n", "SIP/2.0 180",
		"INVITE  sip:b@h SIP/2.0\r\n\r\n", "INV@TE sip:b@h SIP/2.0\r\n\r\n", "INVITE sip:b@h SIP/2.1\r\n",
		"INVITE sip:b@h SIP/2.0\n\nbody\r\n\r\n", "BYE sip:b@h SIP/2.0 extra\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	ref := newRefParser()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h head
		rej := checkHead(raw, &h)
		got, gotErr := ParseMessage(raw)
		if rej.OK() {
			matchReference(t, ref, raw, got, gotErr)
			return
		}
		if gotErr == nil || gotErr.Error() != rej.Text(raw) {
			t.Fatalf("pre-allocation check refused with %q, ParseMessage returned %v\ninput: %q", rej.Text(raw), gotErr, raw)
		}
		if m, dr := Decode(raw); m != nil || dr != rej {
			t.Fatalf("Decode returned (%v, %+v), the check refused with %+v\ninput: %q", m, dr, rej, raw)
		}
	})
}
