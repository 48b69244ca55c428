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
// messages: one long-lived parser (its intern table and fold buffer
// accumulating across every fuzz input) must produce exactly the result
// a fresh parser does — same error text, same Message.
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
