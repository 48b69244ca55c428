package sip

import (
	"testing"
)

func TestParseURI(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    URI
		wantErr bool
	}{
		{
			name: "full",
			in:   "sip:alice@10.0.0.1:5070;transport=udp",
			want: URI{User: "alice", Host: "10.0.0.1", Port: 5070, Params: map[string]string{"transport": "udp"}},
		},
		{
			name: "no port",
			in:   "sip:bob@example.com",
			want: URI{User: "bob", Host: "example.com"},
		},
		{
			name: "no user",
			in:   "sip:proxy.example.com:5060",
			want: URI{Host: "proxy.example.com", Port: 5060},
		},
		{
			name: "valueless param",
			in:   "sip:a@b;lr",
			want: URI{User: "a", Host: "b", Params: map[string]string{"lr": ""}},
		},
		{name: "bad scheme", in: "http://x", wantErr: true},
		{name: "empty user", in: "sip:@host", wantErr: true},
		{name: "empty host", in: "sip:user@", wantErr: true},
		{name: "bad port", in: "sip:a@b:99999", wantErr: true},
		{name: "empty param name", in: "sip:a@b;=v", wantErr: true},
		// Hosts that would render a URI that does not parse back.
		{name: "colon host", in: "sip:::0", wantErr: true},
		{name: "angle bracket host", in: "sip:>0", wantErr: true},
		{name: "angle bracket user", in: "sip:>@0", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseURI(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseURI(%q): want error, got %+v", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseURI(%q): %v", tt.in, err)
			}
			if got.User != tt.want.User || got.Host != tt.want.Host || got.Port != tt.want.Port {
				t.Errorf("got %+v, want %+v", got, tt.want)
			}
			for k, v := range tt.want.Params {
				if got.Params[k] != v {
					t.Errorf("param %q = %q, want %q", k, got.Params[k], v)
				}
			}
		})
	}
}

func TestURIStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"sip:alice@10.0.0.1:5070;transport=udp",
		"sip:bob@example.com",
		"sip:proxy:5060",
	} {
		u, err := ParseURI(s)
		if err != nil {
			t.Fatalf("ParseURI(%q): %v", s, err)
		}
		again, err := ParseURI(u.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", u.String(), err)
		}
		if again.String() != u.String() {
			t.Errorf("round trip changed: %q -> %q", u.String(), again.String())
		}
	}
}

func TestURIHelpers(t *testing.T) {
	u := URI{User: "alice", Host: "atlanta.com"}
	if got := u.AOR(); got != "alice@atlanta.com" {
		t.Errorf("AOR = %q", got)
	}
	if got := u.EffectivePort(); got != DefaultPort {
		t.Errorf("EffectivePort = %d, want %d", got, DefaultPort)
	}
	u.Port = 5080
	if got := u.EffectivePort(); got != 5080 {
		t.Errorf("EffectivePort = %d, want 5080", got)
	}
	host := URI{Host: "proxy"}
	if got := host.AOR(); got != "proxy" {
		t.Errorf("host-only AOR = %q", got)
	}
}

func TestParseAddress(t *testing.T) {
	tests := []struct {
		name        string
		in          string
		wantDisplay string
		wantURI     string
		wantTag     string
		wantErr     bool
	}{
		{
			name:        "name-addr with tag",
			in:          `"Alice" <sip:alice@10.0.0.1>;tag=88sja8x`,
			wantDisplay: "Alice",
			wantURI:     "sip:alice@10.0.0.1",
			wantTag:     "88sja8x",
		},
		{
			name:    "bare addr-spec",
			in:      "sip:bob@b.com",
			wantURI: "sip:bob@b.com",
		},
		{
			name:    "addr-spec with tag",
			in:      "sip:bob@b.com;tag=xyz",
			wantURI: "sip:bob@b.com",
			wantTag: "xyz",
		},
		{
			name:        "unquoted display",
			in:          "Bob <sip:bob@b.com>",
			wantDisplay: "Bob",
			wantURI:     "sip:bob@b.com",
		},
		{name: "unbalanced brackets", in: ">sip:x@y<", wantErr: true},
		{name: "bad inner uri", in: "<mailto:x@y>", wantErr: true},
		// Bare addr-specs whose name-addr rendering would not parse back.
		{name: "angle bracket host", in: "sip:>0", wantErr: true},
		{name: "angle bracket user", in: "sip:>@0", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseAddress(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("want error, got %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAddress(%q): %v", tt.in, err)
			}
			if got.Display != tt.wantDisplay {
				t.Errorf("Display = %q, want %q", got.Display, tt.wantDisplay)
			}
			if got.URI.String() != tt.wantURI {
				t.Errorf("URI = %q, want %q", got.URI.String(), tt.wantURI)
			}
			if got.Tag() != tt.wantTag {
				t.Errorf("Tag = %q, want %q", got.Tag(), tt.wantTag)
			}
		})
	}
}

func TestAddressWithTag(t *testing.T) {
	a, err := ParseAddress("<sip:alice@a.com>")
	if err != nil {
		t.Fatal(err)
	}
	b := a.WithTag("t1")
	if a.Tag() != "" {
		t.Error("WithTag mutated the original")
	}
	if b.Tag() != "t1" {
		t.Errorf("tag = %q, want t1", b.Tag())
	}
	reparsed, err := ParseAddress(b.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if reparsed.Tag() != "t1" {
		t.Errorf("round-tripped tag = %q", reparsed.Tag())
	}
}
