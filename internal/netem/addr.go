// Package netem emulates the network layer of the C³ testbed: hosts,
// links with latency and bandwidth, switches, and a lightweight reliable
// transport with TCP-like handshake semantics.
//
// Every packet travels through Device pipelines connected by Links, so an
// OpenFlow switch placed on the path genuinely intercepts and rewrites
// the traffic — exactly the mechanism the transparent-access approach
// relies on. Time comes exclusively from a *vclock.Virtual.
package netem

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// ParseIP parses dotted-quad notation. It panics on malformed input —
// addresses in the emulation are compile-time constants or generated.
func ParseIP(s string) IP {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		panic(fmt.Sprintf("netem: malformed IP %q", s))
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			panic(fmt.Sprintf("netem: malformed IP %q", s))
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip)
}

// String renders the address in dotted-quad notation.
func (ip IP) String() string {
	var buf [len("255.255.255.255")]byte
	return string(ip.appendTo(buf[:0]))
}

// appendTo appends the dotted quad to b.
func (ip IP) appendTo(b []byte) []byte {
	for i, o := range ip.Octets() {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(o), 10)
	}
	return b
}

// Octets returns the four address bytes, most significant first.
func (ip IP) Octets() [4]byte {
	return [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// IPFromOctets assembles an address from four bytes, most significant first.
func IPFromOctets(o [4]byte) IP {
	return IP(uint32(o[0])<<24 | uint32(o[1])<<16 | uint32(o[2])<<8 | uint32(o[3]))
}

// HostPort is a transport endpoint: an IPv4 address and a TCP port.
type HostPort struct {
	IP   IP
	Port uint16
}

// String renders "a.b.c.d:port".
func (hp HostPort) String() string {
	var buf [len("255.255.255.255:65535")]byte
	b := append(hp.IP.appendTo(buf[:0]), ':')
	return string(strconv.AppendUint(b, uint64(hp.Port), 10))
}

// ParseHostPort parses "a.b.c.d:port", panicking on malformed input.
func ParseHostPort(s string) HostPort {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		panic(fmt.Sprintf("netem: malformed host:port %q", s))
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port < 0 || port > 65535 {
		panic(fmt.Sprintf("netem: malformed port in %q", s))
	}
	return HostPort{IP: ParseIP(s[:i]), Port: uint16(port)}
}

// IsZero reports whether hp is the zero endpoint.
func (hp HostPort) IsZero() bool { return hp.IP == 0 && hp.Port == 0 }
