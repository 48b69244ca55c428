package sip

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// URI is a SIP URI of the form sip:user@host:port;param=value.
// Only the sip scheme is supported.
type URI struct {
	User   string
	Host   string
	Port   uint16 // 0 means the default port (5060)
	Params map[string]string
}

// DefaultPort is the standard SIP UDP port.
const DefaultPort = 5060

// ParseURI parses a SIP URI.
func ParseURI(s string) (URI, error) {
	rest, ok := strings.CutPrefix(s, "sip:")
	if !ok {
		return URI{}, fmt.Errorf("sip: uri %q: unsupported scheme", s)
	}
	var u URI
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		u.User = rest[:at]
		rest = rest[at+1:]
		if u.User == "" {
			return URI{}, fmt.Errorf("sip: uri %q: empty user part", s)
		}
		if strings.ContainsAny(u.User, "<>") {
			return URI{}, fmt.Errorf("sip: uri %q: bad user part %q", s, u.User)
		}
	}
	hostport := rest
	if semi := strings.IndexByte(rest, ';'); semi >= 0 {
		hostport = rest[:semi]
		params, err := parseParams(rest[semi+1:])
		if err != nil {
			return URI{}, fmt.Errorf("sip: uri %q: %w", s, err)
		}
		u.Params = params
	}
	host, port, err := splitHostPort(hostport)
	if err != nil {
		return URI{}, fmt.Errorf("sip: uri %q: %w", s, err)
	}
	if host == "" {
		return URI{}, fmt.Errorf("sip: uri %q: empty host", s)
	}
	// RFC 3261 §25.1: a host is a hostname or an IPv4 address (IPv6
	// references are not supported), so a ':' left after the port split,
	// or an angle bracket, is not one. Either would render a URI that
	// does not parse back, as would an angle bracket in the user part.
	if strings.ContainsAny(host, ":<>") {
		return URI{}, fmt.Errorf("sip: uri %q: bad host %q", s, host)
	}
	u.Host, u.Port = host, port
	return u, nil
}

// splitHostPort splits "host[:port]". Unlike net.SplitHostPort it accepts
// a missing port.
func splitHostPort(s string) (string, uint16, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return s, 0, nil
	}
	p, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return "", 0, fmt.Errorf("bad port %q", s[colon+1:])
	}
	return s[:colon], uint16(p), nil
}

// parseParams parses ";"-separated param[=value] lists.
func parseParams(s string) (map[string]string, error) {
	params := make(map[string]string)
	for _, part := range strings.Split(s, ";") {
		if part == "" {
			continue
		}
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			key := strings.TrimSpace(part[:eq])
			if key == "" {
				return nil, fmt.Errorf("empty parameter name in %q", s)
			}
			params[strings.ToLower(key)] = strings.TrimSpace(part[eq+1:])
		} else {
			params[strings.ToLower(strings.TrimSpace(part))] = ""
		}
	}
	return params, nil
}

// formatParams serializes params deterministically (sorted by key).
func formatParams(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		if v := params[k]; v != "" {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}

// String serializes the URI.
func (u URI) String() string {
	var b strings.Builder
	b.WriteString("sip:")
	if u.User != "" {
		b.WriteString(u.User)
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		fmt.Fprintf(&b, ":%d", u.Port)
	}
	b.WriteString(formatParams(u.Params))
	return b.String()
}

// EffectivePort returns the URI port or the SIP default.
func (u URI) EffectivePort() uint16 {
	if u.Port != 0 {
		return u.Port
	}
	return DefaultPort
}

// AOR returns the address-of-record "user@host" without port or params,
// the key registrars and location services use.
func (u URI) AOR() string {
	if u.User == "" {
		return u.Host
	}
	return u.User + "@" + u.Host
}

// Address is a name-addr or addr-spec header value (From, To, Contact):
// an optional display name, a URI, and header parameters such as tag.
type Address struct {
	Display string
	URI     URI
	Params  map[string]string
}

// ParseAddress parses a name-addr ("Alice" <sip:alice@a.com>;tag=1) or a
// bare addr-spec (sip:alice@a.com).
func ParseAddress(s string) (Address, error) {
	s = strings.TrimSpace(s)
	var a Address
	if lt := strings.IndexByte(s, '<'); lt >= 0 {
		gt := strings.IndexByte(s, '>')
		if gt < lt {
			return Address{}, fmt.Errorf("sip: address %q: unbalanced angle brackets", s)
		}
		a.Display = strings.Trim(strings.TrimSpace(s[:lt]), `"`)
		uri, err := ParseURI(s[lt+1 : gt])
		if err != nil {
			return Address{}, err
		}
		a.URI = uri
		rest := strings.TrimSpace(s[gt+1:])
		if rest != "" {
			rest = strings.TrimPrefix(rest, ";")
			params, err := parseParams(rest)
			if err != nil {
				return Address{}, fmt.Errorf("sip: address %q: %w", s, err)
			}
			a.Params = params
		}
		return a, nil
	}
	// Bare addr-spec: header params follow the URI's own params; without
	// brackets the split is ambiguous, so treat everything after the first
	// ';' as header params (the common interpretation for From/To).
	uriPart := s
	if semi := strings.IndexByte(s, ';'); semi >= 0 {
		uriPart = s[:semi]
		params, err := parseParams(s[semi+1:])
		if err != nil {
			return Address{}, fmt.Errorf("sip: address %q: %w", s, err)
		}
		a.Params = params
	}
	uri, err := ParseURI(uriPart)
	if err != nil {
		return Address{}, err
	}
	a.URI = uri
	return a, nil
}

// String serializes the address in name-addr form.
func (a Address) String() string {
	var b strings.Builder
	if a.Display != "" {
		fmt.Fprintf(&b, "%q ", a.Display)
	}
	b.WriteByte('<')
	b.WriteString(a.URI.String())
	b.WriteByte('>')
	b.WriteString(formatParams(a.Params))
	return b.String()
}

// Tag returns the tag parameter, or "".
func (a Address) Tag() string { return a.Params["tag"] }

// WithTag returns a copy of the address with the tag parameter set.
func (a Address) WithTag(tag string) Address {
	params := make(map[string]string, len(a.Params)+1)
	for k, v := range a.Params {
		params[k] = v
	}
	params["tag"] = tag
	a.Params = params
	return a
}
