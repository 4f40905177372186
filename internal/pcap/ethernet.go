package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/c3lab/transparentedge/internal/netem"
)

// Frame layout constants.
const (
	etherHeaderLen = 14
	etherTypeIPv4  = 0x0800
	ipv4HeaderLen  = 20
	tcpHeaderLen   = 20
	protoTCP       = 6
)

// TCP flag bits as they appear in the wire header.
const (
	tcpFIN = 0x01
	tcpSYN = 0x02
	tcpRST = 0x04
	tcpPSH = 0x08
	tcpACK = 0x10
)

// ErrNotTCPIPv4 marks frames that are not IPv4/TCP and should be skipped
// during conversation extraction (the real bigFlows capture is full of
// such traffic).
var ErrNotTCPIPv4 = errors.New("pcap: frame is not IPv4/TCP")

// TCPSegment is the decoded view of one IPv4/TCP frame.
type TCPSegment struct {
	Src, Dst netem.HostPort
	Seq, Ack uint32
	SYN, ACK bool
	FIN, RST bool
	PSH      bool
	Payload  []byte
}

// Flags renders the segment's control bits using netem's flag type.
func (s *TCPSegment) Flags() netem.TCPFlags {
	var f netem.TCPFlags
	if s.SYN {
		f |= netem.FlagSYN
	}
	if s.ACK {
		f |= netem.FlagACK
	}
	if s.FIN {
		f |= netem.FlagFIN
	}
	if s.RST {
		f |= netem.FlagRST
	}
	if s.PSH {
		f |= netem.FlagPSH
	}
	return f
}

// EncodeTCP builds a complete Ethernet/IPv4/TCP frame for the segment.
// MAC addresses are synthesized from the IP addresses; the IPv4 header
// checksum is computed, the TCP checksum is left zero (valid enough for
// offline analysis, which is all this format is used for here).
func EncodeTCP(seg *TCPSegment) []byte {
	frame := make([]byte, frameLen(seg))
	encodeTCP(frame, seg)
	return frame
}

// frameLen is the length of the frame EncodeTCP builds for seg.
func frameLen(seg *TCPSegment) int {
	return etherHeaderLen + ipv4HeaderLen + tcpHeaderLen + len(seg.Payload)
}

// encodeTCP writes seg's frame into frame, which must be frameLen(seg)
// bytes long. Every byte is written, so frame may hold an older frame.
func encodeTCP(frame []byte, seg *TCPSegment) {
	clear(frame[:etherHeaderLen+ipv4HeaderLen+tcpHeaderLen])
	be := binary.BigEndian

	// Ethernet: locally administered MACs derived from the IPs.
	copy(frame[0:6], macForIP(seg.Dst.IP))
	copy(frame[6:12], macForIP(seg.Src.IP))
	be.PutUint16(frame[12:], etherTypeIPv4)

	// IPv4 header.
	ip := frame[etherHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	be.PutUint16(ip[2:], uint16(ipv4HeaderLen+tcpHeaderLen+len(seg.Payload)))
	ip[8] = 64 // TTL
	ip[9] = protoTCP
	srcOct := seg.Src.IP.Octets()
	dstOct := seg.Dst.IP.Octets()
	copy(ip[12:16], srcOct[:])
	copy(ip[16:20], dstOct[:])
	be.PutUint16(ip[10:], ipv4Checksum(ip[:ipv4HeaderLen]))

	// TCP header.
	tcp := ip[ipv4HeaderLen:]
	be.PutUint16(tcp[0:], seg.Src.Port)
	be.PutUint16(tcp[2:], seg.Dst.Port)
	be.PutUint32(tcp[4:], seg.Seq)
	be.PutUint32(tcp[8:], seg.Ack)
	tcp[12] = (tcpHeaderLen / 4) << 4 // data offset
	var flags byte
	if seg.FIN {
		flags |= tcpFIN
	}
	if seg.SYN {
		flags |= tcpSYN
	}
	if seg.RST {
		flags |= tcpRST
	}
	if seg.PSH {
		flags |= tcpPSH
	}
	if seg.ACK {
		flags |= tcpACK
	}
	tcp[13] = flags
	be.PutUint16(tcp[14:], 65535) // window
	copy(tcp[tcpHeaderLen:], seg.Payload)
}

// DecodeTCP parses an Ethernet frame into a TCPSegment. Non-IPv4 and
// non-TCP frames return ErrNotTCPIPv4.
func DecodeTCP(frame []byte) (*TCPSegment, error) {
	seg := new(TCPSegment)
	if err := decodeTCP(frame, seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// decodeTCP is DecodeTCP decoding into seg, whose Payload then aliases
// frame. On error seg is left as it was.
func decodeTCP(frame []byte, seg *TCPSegment) error {
	if len(frame) < etherHeaderLen {
		return fmt.Errorf("pcap: truncated Ethernet frame (%d bytes)", len(frame))
	}
	be := binary.BigEndian
	if be.Uint16(frame[12:]) != etherTypeIPv4 {
		return ErrNotTCPIPv4
	}
	ip := frame[etherHeaderLen:]
	if len(ip) < ipv4HeaderLen {
		return fmt.Errorf("pcap: truncated IPv4 header")
	}
	if ip[0]>>4 != 4 {
		return ErrNotTCPIPv4
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(ip) < ihl {
		return fmt.Errorf("pcap: bad IHL %d", ihl)
	}
	if ip[9] != protoTCP {
		return ErrNotTCPIPv4
	}
	totalLen := int(be.Uint16(ip[2:]))
	if totalLen < ihl || totalLen > len(ip) {
		return fmt.Errorf("pcap: IPv4 total length %d outside header length %d to frame length %d", totalLen, ihl, len(ip))
	}
	tcp := ip[ihl:totalLen]
	if len(tcp) < tcpHeaderLen {
		return fmt.Errorf("pcap: truncated TCP header")
	}
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < tcpHeaderLen || dataOff > len(tcp) {
		return fmt.Errorf("pcap: bad TCP data offset %d", dataOff)
	}
	*seg = TCPSegment{
		Src: netem.HostPort{
			IP:   netem.IPFromOctets([4]byte(ip[12:16])),
			Port: be.Uint16(tcp[0:]),
		},
		Dst: netem.HostPort{
			IP:   netem.IPFromOctets([4]byte(ip[16:20])),
			Port: be.Uint16(tcp[2:]),
		},
		Seq:     be.Uint32(tcp[4:]),
		Ack:     be.Uint32(tcp[8:]),
		FIN:     tcp[13]&tcpFIN != 0,
		SYN:     tcp[13]&tcpSYN != 0,
		RST:     tcp[13]&tcpRST != 0,
		PSH:     tcp[13]&tcpPSH != 0,
		ACK:     tcp[13]&tcpACK != 0,
		Payload: tcp[dataOff:],
	}
	return nil
}

// ipv4Checksum computes the standard ones-complement header checksum
// over hdr with its checksum field zeroed.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 { // checksum field itself
			continue
		}
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ValidateIPv4Checksum reports whether the frame's IPv4 header checksum
// is correct.
func ValidateIPv4Checksum(frame []byte) bool {
	if len(frame) < etherHeaderLen+ipv4HeaderLen {
		return false
	}
	ip := frame[etherHeaderLen:]
	stored := binary.BigEndian.Uint16(ip[10:])
	return ipv4Checksum(ip[:ipv4HeaderLen]) == stored
}

// macForIP derives a stable locally-administered MAC from an IP.
func macForIP(ip netem.IP) []byte {
	o := ip.Octets()
	return []byte{0x02, 0x00, o[0], o[1], o[2], o[3]}
}
