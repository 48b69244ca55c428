// Package sdp implements the subset of the Session Description Protocol
// (RFC 4566) that SIP call setup needs: session origin, connection
// addresses, and audio media descriptions. SCIDIVE's cross-protocol
// correlation depends on SDP to learn which RTP endpoint a SIP dialog
// negotiated.
package sdp

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Origin is the o= line.
type Origin struct {
	Username    string
	SessID      uint64
	SessVersion uint64
	Addr        netip.Addr
}

// Connection is the c= line (IN IP4 only).
type Connection struct {
	Addr netip.Addr
}

// Media is one m= section with its section-level connection and attributes.
type Media struct {
	Type       string // "audio", "video", ...
	Port       uint16
	Proto      string // "RTP/AVP"
	Formats    []string
	Connection *Connection // overrides the session-level c= when present
	Attributes []string
}

// Session is a parsed SDP body.
type Session struct {
	Version    int
	Origin     Origin
	Name       string
	Connection *Connection
	Attributes []string
	Media      []Media
}

// NewAudioSession builds a minimal audio offer/answer: one audio media
// line carrying PCMU (payload type 0) at addr:port.
func NewAudioSession(username string, addr netip.Addr, port uint16) *Session {
	return &Session{
		Version:    0,
		Origin:     Origin{Username: username, SessID: 1, SessVersion: 1, Addr: addr},
		Name:       "call",
		Connection: &Connection{Addr: addr},
		Media: []Media{{
			Type:       "audio",
			Port:       port,
			Proto:      "RTP/AVP",
			Formats:    []string{"0"},
			Attributes: []string{"rtpmap:0 PCMU/8000"},
		}},
	}
}

// MediaEndpoint resolves the transport address of the first media section
// of the given type, combining the media port with the effective
// connection address.
func (s *Session) MediaEndpoint(mediaType string) (netip.AddrPort, bool) {
	for _, m := range s.Media {
		if m.Type != mediaType {
			continue
		}
		conn := m.Connection
		if conn == nil {
			conn = s.Connection
		}
		if conn == nil {
			return netip.AddrPort{}, false
		}
		return netip.AddrPortFrom(conn.Addr, m.Port), true
	}
	return netip.AddrPort{}, false
}

// Marshal serializes the session in canonical line order.
func (s *Session) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d\r\n", s.Version)
	fmt.Fprintf(&b, "o=%s %d %d IN IP4 %s\r\n", orDash(s.Origin.Username), s.Origin.SessID, s.Origin.SessVersion, s.Origin.Addr)
	fmt.Fprintf(&b, "s=%s\r\n", orDash(s.Name))
	if s.Connection != nil {
		fmt.Fprintf(&b, "c=IN IP4 %s\r\n", s.Connection.Addr)
	}
	b.WriteString("t=0 0\r\n")
	for _, a := range s.Attributes {
		fmt.Fprintf(&b, "a=%s\r\n", a)
	}
	for _, m := range s.Media {
		fmt.Fprintf(&b, "m=%s %d %s %s\r\n", m.Type, m.Port, m.Proto, strings.Join(m.Formats, " "))
		if m.Connection != nil {
			fmt.Fprintf(&b, "c=IN IP4 %s\r\n", m.Connection.Addr)
		}
		for _, a := range m.Attributes {
			fmt.Fprintf(&b, "a=%s\r\n", a)
		}
	}
	return []byte(b.String())
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Parse decodes an SDP body. Unknown line types are ignored, per the
// robustness principle; structurally invalid known lines are errors.
func Parse(body []byte) (*Session, error) {
	s := &Session{}
	var cur *Media // nil while in the session section
	sawVersion := false
	for lineNo, raw := range strings.Split(string(body), "\n") {
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, fmt.Errorf("sdp: line %d: malformed %q", lineNo+1, line)
		}
		typ, val := line[0], line[2:]
		switch typ {
		case 'v':
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sdp: line %d: bad version %q", lineNo+1, val)
			}
			s.Version = v
			sawVersion = true
		case 'o':
			o, err := parseOrigin(val)
			if err != nil {
				return nil, fmt.Errorf("sdp: line %d: %w", lineNo+1, err)
			}
			s.Origin = o
		case 's':
			s.Name = val
		case 'c':
			c, err := parseConnection(val)
			if err != nil {
				return nil, fmt.Errorf("sdp: line %d: %w", lineNo+1, err)
			}
			if cur != nil {
				cur.Connection = &c
			} else {
				s.Connection = &c
			}
		case 'a':
			if cur != nil {
				cur.Attributes = append(cur.Attributes, val)
			} else {
				s.Attributes = append(s.Attributes, val)
			}
		case 'm':
			m, err := parseMedia(val)
			if err != nil {
				return nil, fmt.Errorf("sdp: line %d: %w", lineNo+1, err)
			}
			s.Media = append(s.Media, m)
			cur = &s.Media[len(s.Media)-1]
		default:
			// t=, b=, k=, etc.: tolerated and ignored.
		}
	}
	if !sawVersion {
		return nil, fmt.Errorf("sdp: missing v= line")
	}
	return s, nil
}

// MediaEndpointOf reports what Parse(body) and then MediaEndpoint(mediaType)
// would, false wherever Parse fails, in one pass over the body and without
// allocating for a well-formed one. Every line is checked as Parse checks
// it; only the session connection and the first mediaType section's port
// and connection are kept.
func MediaEndpointOf(body []byte, mediaType string) (netip.AddrPort, bool) {
	// A string view of body for strconv and netip, which keep nothing of
	// their input on success; the errors that would are dropped on the
	// spot, and the view itself never outlives this call.
	s := unsafe.String(unsafe.SliceData(body), len(body))
	var (
		sessConn, mediaConn netip.Addr // the last c= of each section; zero when none
		port                uint16
		sawVersion          bool
		inMedia             bool // past the first m= line
		found, inTarget     bool // the first mediaType section was seen; it is the current one
		f                   [7]string
	)
	for more := true; more; {
		var line string
		line, s, more = strings.Cut(s, "\n")
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return netip.AddrPort{}, false
		}
		val := line[2:]
		switch line[0] {
		case 'v':
			if _, err := strconv.Atoi(val); err != nil {
				return netip.AddrPort{}, false
			}
			sawVersion = true
		case 'o':
			if fields(val, &f) != 6 || !isUint(f[1], 64) || !isUint(f[2], 64) || f[3] != "IN" || f[4] != "IP4" {
				return netip.AddrPort{}, false
			}
			if _, err := netip.ParseAddr(f[5]); err != nil {
				return netip.AddrPort{}, false
			}
		case 'c':
			if fields(val, &f) != 3 || f[0] != "IN" || f[1] != "IP4" {
				return netip.AddrPort{}, false
			}
			addr, err := netip.ParseAddr(f[2])
			switch {
			case err != nil:
				return netip.AddrPort{}, false
			case !inMedia:
				sessConn = addr
			case inTarget:
				mediaConn = addr
			}
		case 'm':
			if fields(val, &f) < 4 {
				return netip.AddrPort{}, false
			}
			p, err := strconv.ParseUint(f[1], 10, 16)
			if err != nil {
				return netip.AddrPort{}, false
			}
			inMedia = true
			inTarget = !found && f[0] == mediaType
			if inTarget {
				found, port = true, uint16(p)
			}
		}
	}
	conn := mediaConn
	if !conn.IsValid() {
		conn = sessConn
	}
	if !sawVersion || !found || !conn.IsValid() {
		return netip.AddrPort{}, false
	}
	return netip.AddrPortFrom(conn, port), true
}

// isUint reports whether strconv.ParseUint(s, 10, bits) succeeds.
func isUint(s string, bits int) bool {
	_, err := strconv.ParseUint(s, 10, bits)
	return err == nil
}

// fields splits v as strings.Fields does into f, returning how many
// fields there are, counting no further than len(f).
func fields(v string, f *[7]string) int {
	n := 0
	for i := 0; n < len(f); n++ {
		for i < len(v) {
			r, w := rune(v[i]), 1
			if r >= utf8.RuneSelf {
				r, w = utf8.DecodeRuneInString(v[i:])
			}
			if !unicode.IsSpace(r) {
				break
			}
			i += w
		}
		if i == len(v) {
			return n
		}
		lo := i
		for i < len(v) {
			r, w := rune(v[i]), 1
			if r >= utf8.RuneSelf {
				r, w = utf8.DecodeRuneInString(v[i:])
			}
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		f[n] = v[lo:i]
	}
	return n
}

func parseOrigin(val string) (Origin, error) {
	f := strings.Fields(val)
	if len(f) != 6 {
		return Origin{}, fmt.Errorf("origin: want 6 fields, got %d", len(f))
	}
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return Origin{}, fmt.Errorf("origin: bad sess-id %q", f[1])
	}
	ver, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return Origin{}, fmt.Errorf("origin: bad sess-version %q", f[2])
	}
	if f[3] != "IN" || f[4] != "IP4" {
		return Origin{}, fmt.Errorf("origin: unsupported nettype/addrtype %s %s", f[3], f[4])
	}
	addr, err := netip.ParseAddr(f[5])
	if err != nil {
		return Origin{}, fmt.Errorf("origin: bad address %q", f[5])
	}
	return Origin{Username: f[0], SessID: id, SessVersion: ver, Addr: addr}, nil
}

func parseConnection(val string) (Connection, error) {
	f := strings.Fields(val)
	if len(f) != 3 || f[0] != "IN" || f[1] != "IP4" {
		return Connection{}, fmt.Errorf("connection: unsupported %q", val)
	}
	addr, err := netip.ParseAddr(f[2])
	if err != nil {
		return Connection{}, fmt.Errorf("connection: bad address %q", f[2])
	}
	return Connection{Addr: addr}, nil
}

func parseMedia(val string) (Media, error) {
	f := strings.Fields(val)
	if len(f) < 4 {
		return Media{}, fmt.Errorf("media: want >= 4 fields, got %d", len(f))
	}
	port, err := strconv.ParseUint(f[1], 10, 16)
	if err != nil {
		return Media{}, fmt.Errorf("media: bad port %q", f[1])
	}
	return Media{
		Type:    f[0],
		Port:    uint16(port),
		Proto:   f[2],
		Formats: f[3:],
	}, nil
}
