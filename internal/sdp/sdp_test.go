package sdp

import (
	"net/netip"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.1")
	s := NewAudioSession("alice", addr, 40000)
	parsed, err := Parse(s.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Origin.Username != "alice" || parsed.Origin.Addr != addr {
		t.Errorf("origin = %+v", parsed.Origin)
	}
	if parsed.Connection == nil || parsed.Connection.Addr != addr {
		t.Errorf("connection = %+v", parsed.Connection)
	}
	if len(parsed.Media) != 1 {
		t.Fatalf("media count = %d, want 1", len(parsed.Media))
	}
	m := parsed.Media[0]
	if m.Type != "audio" || m.Port != 40000 || m.Proto != "RTP/AVP" || !reflect.DeepEqual(m.Formats, []string{"0"}) {
		t.Errorf("media = %+v", m)
	}
	if !reflect.DeepEqual(m.Attributes, []string{"rtpmap:0 PCMU/8000"}) {
		t.Errorf("media attributes = %v", m.Attributes)
	}
}

func TestMediaEndpoint(t *testing.T) {
	sessAddr := netip.MustParseAddr("10.0.0.1")
	mediaAddr := netip.MustParseAddr("10.0.0.9")
	tests := []struct {
		name string
		s    *Session
		want netip.AddrPort
		ok   bool
	}{
		{
			name: "session-level connection",
			s:    NewAudioSession("a", sessAddr, 1234),
			want: netip.AddrPortFrom(sessAddr, 1234),
			ok:   true,
		},
		{
			name: "media-level connection overrides",
			s: &Session{
				Connection: &Connection{Addr: sessAddr},
				Media: []Media{{
					Type: "audio", Port: 555, Proto: "RTP/AVP", Formats: []string{"0"},
					Connection: &Connection{Addr: mediaAddr},
				}},
			},
			want: netip.AddrPortFrom(mediaAddr, 555),
			ok:   true,
		},
		{
			name: "no matching media",
			s:    &Session{Connection: &Connection{Addr: sessAddr}},
			ok:   false,
		},
		{
			name: "no connection anywhere",
			s:    &Session{Media: []Media{{Type: "audio", Port: 1}}},
			ok:   false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.s.MediaEndpoint("audio")
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if ok && got != tt.want {
				t.Errorf("endpoint = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestParseRealWorldBody(t *testing.T) {
	body := "v=0\r\n" +
		"o=bob 2890844527 2890844527 IN IP4 10.0.0.2\r\n" +
		"s=-\r\n" +
		"c=IN IP4 10.0.0.2\r\n" +
		"b=AS:64\r\n" + // ignored line type
		"t=0 0\r\n" +
		"a=sendrecv\r\n" +
		"m=audio 49172 RTP/AVP 0 8 97\r\n" +
		"a=rtpmap:0 PCMU/8000\r\n" +
		"a=rtpmap:8 PCMA/8000\r\n" +
		"m=video 51372 RTP/AVP 31\r\n" +
		"c=IN IP4 10.0.0.3\r\n"
	s, err := Parse([]byte(body))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Media) != 2 {
		t.Fatalf("media count = %d, want 2", len(s.Media))
	}
	if got := len(s.Media[0].Formats); got != 3 {
		t.Errorf("audio formats = %d, want 3", got)
	}
	if !reflect.DeepEqual(s.Attributes, []string{"sendrecv"}) {
		t.Errorf("session attributes = %v", s.Attributes)
	}
	audio, ok := s.MediaEndpoint("audio")
	if !ok || audio != netip.MustParseAddrPort("10.0.0.2:49172") {
		t.Errorf("audio endpoint = %v ok=%v", audio, ok)
	}
	video, ok := s.MediaEndpoint("video")
	if !ok || video != netip.MustParseAddrPort("10.0.0.3:51372") {
		t.Errorf("video endpoint = %v ok=%v", video, ok)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"missing version", "s=call\r\n"},
		{"malformed line", "v=0\r\nxyz\r\n"},
		{"bad version", "v=abc\r\n"},
		{"bad origin fields", "v=0\r\no=alice 1 IN IP4 10.0.0.1\r\n"},
		{"bad origin addr", "v=0\r\no=alice 1 1 IN IP4 notanip\r\n"},
		{"ipv6 connection", "v=0\r\nc=IN IP6 ::1\r\n"},
		{"bad media port", "v=0\r\nm=audio notaport RTP/AVP 0\r\n"},
		{"short media", "v=0\r\nm=audio 49170\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse([]byte(tt.body)); err == nil {
				t.Errorf("Parse(%q): want error", tt.body)
			}
		})
	}
}

func TestParseToleratesLFOnly(t *testing.T) {
	body := "v=0\no=a 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 10.0.0.1\nm=audio 4000 RTP/AVP 0\n"
	s, err := Parse([]byte(body))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := s.MediaEndpoint("audio"); !ok {
		t.Error("audio endpoint not found in LF-only body")
	}
}

// parseThenEndpoint is what MediaEndpointOf is held to: the full parse,
// then the endpoint lookup, false wherever the parse fails.
func parseThenEndpoint(body []byte, mediaType string) (netip.AddrPort, bool) {
	s, err := Parse(body)
	if err != nil {
		return netip.AddrPort{}, false
	}
	return s.MediaEndpoint(mediaType)
}

// FuzzMediaEndpointMatchesParse holds the one-pass endpoint scan to the
// full parser: for any body and media type it reports what Parse then
// MediaEndpoint report.
func FuzzMediaEndpointMatchesParse(f *testing.F) {
	for _, body := range []string{
		string(NewAudioSession("alice", netip.MustParseAddr("10.0.0.1"), 40000).Marshal()),
		"v=0\r\no=bob 2890844527 2890844527 IN IP4 10.0.0.2\r\ns=-\r\nc=IN IP4 10.0.0.2\r\nb=AS:64\r\nt=0 0\r\n" +
			"a=sendrecv\r\nm=audio 49172 RTP/AVP 0 8 97\r\na=rtpmap:0 PCMU/8000\r\nm=video 51372 RTP/AVP 31\r\nc=IN IP4 10.0.0.3\r\n",
		"v=0\no=a 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 10.0.0.1\nm=audio 4000 RTP/AVP 0\n",
		"v=0\r\nm=audio 1 RTP/AVP 0\r\nc=IN IP4 10.0.0.9\r\nc=IN IP4 10.0.0.8\r\nm=audio 2 RTP/AVP 0\r\nc=IN IP4 10.0.0.7\r\n",
		"v=0\r\nc=IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.2\r\nm=video 5 RTP/AVP 0\r\nc=IN IP4 10.0.0.3\r\nm=audio 6 RTP/AVP 0\r\n",
		"v=0\r\nm=audio 1 RTP/AVP 0\r\n", "v=0\r\nc=IN IP4 ::1\r\nm=audio 65535 x y\r\n", "v=+0\r\r\r\nc=IN IP4 1.2.3.4\r\nm=audio  7 a b\r\n",
		"v=0\r\no=a 1 1 IN IP4 10.0.0.1 extra\r\n", "v=0\r\nm=audio 65536 RTP/AVP 0\r\n", "v=0\r\nxyz\r\n", "", "s=call\r\n",
		"v=0\r\nc=IN IP4 fe80::1%eth0\r\nm=audio 9 RTP/AVP 0\r\n", "v=0\r\nc=IN IP4 1.2.3.4\r\nm=audio 9 RTP/AVP 0\r\nm=audio 9 RTP/AVP 0\r\nm=\r\n",
	} {
		f.Add([]byte(body), "audio")
	}
	f.Add([]byte("v=0\r\nc=IN IP4 1.2.3.4\r\nm=video 9 RTP/AVP 0\r\n"), "video")
	f.Fuzz(func(t *testing.T, body []byte, mediaType string) {
		want, wantOK := parseThenEndpoint(body, mediaType)
		got, gotOK := MediaEndpointOf(body, mediaType)
		if got != want || gotOK != wantOK {
			t.Fatalf("MediaEndpointOf(%q, %q) = %v, %v; Parse then MediaEndpoint: %v, %v", body, mediaType, got, gotOK, want, wantOK)
		}
	})
}

// TestMediaEndpointOfDoesNotAllocate pins the point of the scan: an
// offer's endpoint costs no allocation.
func TestMediaEndpointOfDoesNotAllocate(t *testing.T) {
	body := []byte("v=0\r\no=bob 2890844527 2890844527 IN IP4 10.0.0.2\r\ns=-\r\nc=IN IP4 10.0.0.2\r\nt=0 0\r\n" +
		"m=audio 49172 RTP/AVP 0 8 97\r\na=rtpmap:0 PCMU/8000\r\nc=IN IP4 10.0.0.5\r\nm=video 51372 RTP/AVP 31\r\n")
	want := netip.MustParseAddrPort("10.0.0.5:49172")
	if n := testing.AllocsPerRun(200, func() {
		if got, ok := MediaEndpointOf(body, "audio"); !ok || got != want {
			t.Fatalf("MediaEndpointOf = %v, %v; want %v", got, ok, want)
		}
	}); n != 0 {
		t.Errorf("MediaEndpointOf: %.0f allocs, want 0", n)
	}
}
