package sip

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func frameAll(f *StreamFramer, data []byte) [][]byte {
	var out [][]byte
	f.Push(data, func(m []byte) { out = append(out, append([]byte(nil), m...)) })
	return out
}

func framerMsg(callID string, body string) string {
	return "INVITE sip:bob@example.com SIP/2.0\r\n" +
		"Via: SIP/2.0/TCP 10.0.0.1:5060\r\n" +
		"From: <sip:alice@example.com>;tag=1\r\n" +
		"To: <sip:bob@example.com>\r\n" +
		"Call-ID: " + callID + "\r\n" +
		"CSeq: 1 INVITE\r\n" +
		fmt.Sprintf("Content-Length: %d\r\n", len(body)) +
		"\r\n" + body
}

func TestFramerWholeMessage(t *testing.T) {
	var f StreamFramer
	msg := framerMsg("one@test", "v=0\r\n")
	got := frameAll(&f, []byte(msg))
	if len(got) != 1 || string(got[0]) != msg {
		t.Fatalf("framed %d messages; first %q", len(got), got)
	}
	if f.PendingBytes() != 0 {
		t.Errorf("PendingBytes = %d", f.PendingBytes())
	}
}

func TestFramerSplitAtEveryByte(t *testing.T) {
	msgs := []string{
		framerMsg("a@test", "v=0\r\nm=audio 4000 RTP/AVP 0\r\n"),
		framerMsg("b@test", ""),
		framerMsg("c@test", "binary\r\n\r\nwith separator inside"),
	}
	stream := []byte(strings.Join(msgs, ""))
	for cut := 1; cut < len(stream); cut++ {
		var f StreamFramer
		var got [][]byte
		emit := func(m []byte) { got = append(got, append([]byte(nil), m...)) }
		f.Push(stream[:cut], emit)
		f.Push(stream[cut:], emit)
		if len(got) != len(msgs) {
			t.Fatalf("cut %d: framed %d messages, want %d", cut, len(got), len(msgs))
		}
		for i := range msgs {
			if string(got[i]) != msgs[i] {
				t.Fatalf("cut %d: message %d mismatch:\n%q\nwant\n%q", cut, i, got[i], msgs[i])
			}
		}
	}
}

func TestFramerCoalescedMessages(t *testing.T) {
	msgs := []string{
		framerMsg("x@test", "abc"),
		framerMsg("y@test", ""),
		framerMsg("z@test", "0123456789"),
	}
	var f StreamFramer
	got := frameAll(&f, []byte(strings.Join(msgs, "")))
	if len(got) != 3 {
		t.Fatalf("framed %d messages, want 3", len(got))
	}
	for i := range msgs {
		if string(got[i]) != msgs[i] {
			t.Errorf("message %d mismatch", i)
		}
	}
}

func TestFramerKeepAliveCRLF(t *testing.T) {
	msg := framerMsg("ka@test", "x")
	var f StreamFramer
	got := frameAll(&f, []byte("\r\n\r\n"+msg+"\r\n"))
	if len(got) != 1 || string(got[0]) != msg {
		t.Fatalf("keep-alive handling framed %d messages", len(got))
	}
}

func TestFramerNoContentLength(t *testing.T) {
	// Absent Content-Length frames a zero-length body (stream transports
	// cannot rely on "rest of datagram"). Trailing bytes belong to the
	// next message.
	msg := "OPTIONS sip:a@b SIP/2.0\r\nVia: SIP/2.0/TCP h\r\nFrom: <sip:x@y>;tag=9\r\nTo: <sip:a@b>\r\nCall-ID: nc@t\r\nCSeq: 1 OPTIONS\r\n\r\n"
	var f StreamFramer
	got := frameAll(&f, []byte(msg))
	if len(got) != 1 || string(got[0]) != msg {
		t.Fatalf("framed %v", got)
	}
}

func TestFramerCompactContentLength(t *testing.T) {
	msg := "MESSAGE sip:a@b SIP/2.0\r\nVia: SIP/2.0/TCP h\r\nFrom: <sip:x@y>;tag=2\r\nTo: <sip:a@b>\r\nCall-ID: cc@t\r\nCSeq: 1 MESSAGE\r\nl: 5\r\n\r\nhello"
	var f StreamFramer
	got := frameAll(&f, []byte(msg))
	if len(got) != 1 || string(got[0]) != msg {
		t.Fatalf("compact form framed %v", got)
	}
}

func TestFramerBadContentLengthResyncs(t *testing.T) {
	bad := "INVITE sip:a@b SIP/2.0\r\nContent-Length: huge\r\n\r\n"
	good := framerMsg("ok@test", "yes")
	var f StreamFramer
	got := frameAll(&f, []byte(bad+good))
	if len(got) != 1 || string(got[0]) != good {
		t.Fatalf("resync framed %d messages", len(got))
	}
	if f.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", f.Dropped())
	}
}

func TestFramerHeaderOverflowDrops(t *testing.T) {
	var f StreamFramer
	junk := bytes.Repeat([]byte("x"), framerMaxHeader+100)
	got := frameAll(&f, junk)
	if len(got) != 0 {
		t.Fatalf("junk framed %d messages", len(got))
	}
	if f.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", f.Dropped())
	}
	if f.PendingBytes() != 0 {
		t.Errorf("PendingBytes = %d after overflow drop", f.PendingBytes())
	}
}

func TestFramerStateRoundTrip(t *testing.T) {
	msg := framerMsg("st@test", "body-bytes")
	cut := len(msg) / 2
	var f1 StreamFramer
	if got := frameAll(&f1, []byte(msg[:cut])); len(got) != 0 {
		t.Fatalf("half a message framed %d messages", len(got))
	}
	var f2 StreamFramer
	f2.SetState(f1.State())
	got := frameAll(&f2, []byte(msg[cut:]))
	if len(got) != 1 || string(got[0]) != msg {
		t.Fatalf("restored framer produced %v", got)
	}
}

// FuzzSIPStreamFramer checks split-invariance: a stream of well-formed
// messages framed at arbitrary split points yields exactly the original
// messages, byte for byte, regardless of where the cuts fall.
// refFindSeparator and refScanContentLength are the framer's two scans
// as they were before scanHead folded them into one walk: the earliest
// of two full separator searches, then a pass over the header block that
// trims and case-folds every name.
func refFindSeparator(b []byte) (int, int) {
	iCRLF := bytes.Index(b, []byte("\r\n\r\n"))
	iLF := bytes.Index(b, []byte("\n\n"))
	switch {
	case iCRLF < 0 && iLF < 0:
		return -1, 0
	case iCRLF < 0 || (iLF >= 0 && iLF < iCRLF):
		return iLF, 2
	default:
		return iCRLF, 4
	}
}

func refScanContentLength(head []byte) (int, bool) {
	for len(head) > 0 {
		line := head
		if i := bytes.IndexByte(head, '\n'); i >= 0 {
			line = head[:i]
			head = head[i+1:]
		} else {
			head = nil
		}
		line = bytes.TrimRight(line, "\r")
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			continue
		}
		name := strings.TrimSpace(string(line[:colon]))
		if !strings.EqualFold(name, HdrContentLength) && !strings.EqualFold(name, "l") {
			continue
		}
		cl, err := strconv.Atoi(strings.TrimSpace(string(line[colon+1:])))
		if err != nil || cl < 0 {
			return 0, false
		}
		return cl, true
	}
	return 0, true
}

// checkScanHead holds scanHead to the two scans it replaced.
func checkScanHead(t *testing.T, b []byte) {
	t.Helper()
	end, sep, cl, ok := scanHead(b)
	wantEnd, wantSep := refFindSeparator(b)
	if end != wantEnd || sep != wantSep {
		t.Fatalf("scanHead(%q) separator at %d+%d, reference %d+%d", b, end, sep, wantEnd, wantSep)
	}
	if end < 0 {
		return
	}
	if wantCL, wantOK := refScanContentLength(b[:end]); cl != wantCL || ok != wantOK {
		t.Fatalf("scanHead(%q) Content-Length %d/%v, reference %d/%v", b, cl, ok, wantCL, wantOK)
	}
}

// FuzzSIPStreamFramer frames three messages cut at two fuzzed points and
// requires them back verbatim; the fuzzed bytes also go through scanHead
// on their own, against the two scans it replaced.
func FuzzSIPStreamFramer(f *testing.F) {
	f.Add([]byte("abc"), uint16(10), uint16(40))
	f.Add([]byte("v=0\r\n"), uint16(1), uint16(3))
	f.Add([]byte(""), uint16(0), uint16(999))
	f.Add([]byte("X: 1\r\r\n\r\n"), uint16(0), uint16(0))
	f.Add([]byte("A\n\r\nl : 7\nB\n\nbody"), uint16(0), uint16(0))
	f.Add([]byte("Content-Length: -1\r\nl: 3\r\n\r\n"), uint16(0), uint16(0))
	f.Add([]byte(" content-LENGTH :12\n\r\n\r\n"), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, cut1, cut2 uint16) {
		if len(body) > 1024 {
			body = body[:1024]
		}
		checkScanHead(t, body)
		msgs := []string{
			framerMsg("f1@test", string(body)),
			framerMsg("f2@test", ""),
			framerMsg("f3@test", string(body)+"tail"),
		}
		stream := []byte(strings.Join(msgs, ""))
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		if a > b {
			a, b = b, a
		}
		var fr StreamFramer
		var got [][]byte
		emit := func(m []byte) { got = append(got, append([]byte(nil), m...)) }
		fr.Push(stream[:a], emit)
		fr.Push(stream[a:b], emit)
		fr.Push(stream[b:], emit)
		if len(got) != len(msgs) {
			t.Fatalf("framed %d messages, want %d (cuts %d,%d)", len(got), len(msgs), a, b)
		}
		for i := range msgs {
			if string(got[i]) != msgs[i] {
				t.Fatalf("message %d differs at cuts %d,%d", i, a, b)
			}
		}
	})
}
