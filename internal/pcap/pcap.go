// Package pcap implements the subset of the libpcap capture format and
// Ethernet/IPv4/TCP packet codecs the evaluation needs.
//
// The paper derives its workload from the public bigFlows.pcap capture by
// extracting TCP conversations to port 80 and keeping destinations with
// at least 20 requests. That capture is not redistributable here, so the
// trace package synthesizes an equivalent capture file; this package
// provides the on-disk format plus the conversation extraction that is
// then applied to it exactly as the paper applies it to the real capture.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Classic pcap constants (microsecond timestamps, Ethernet link type).
const (
	magicMicroseconds = 0xa1b2c3d4
	versionMajor      = 2
	versionMinor      = 4
	linkTypeEthernet  = 1
	defaultSnapLen    = 65535
	globalHeaderLen   = 24
	recordHeaderLen   = 16
)

// ErrBadMagic indicates the stream is not a little-endian microsecond
// pcap file.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Writer emits a pcap capture stream.
type Writer struct {
	w           io.Writer
	wroteHeader bool
	// hdr (the record header) and frame (WriteTCP's encoded segment)
	// are scratch space kept in the Writer: a local array handed to w
	// would escape, costing an allocation per record.
	hdr   [recordHeaderLen]byte
	frame []byte
}

// NewWriter returns a Writer targeting w. The file header is written
// lazily before the first packet.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (pw *Writer) writeHeader() error {
	var hdr [globalHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicMicroseconds)
	le.PutUint16(hdr[4:], versionMajor)
	le.PutUint16(hdr[6:], versionMinor)
	// thiszone and sigfigs stay zero.
	le.PutUint32(hdr[16:], defaultSnapLen)
	le.PutUint32(hdr[20:], linkTypeEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one captured frame with the given timestamp.
func (pw *Writer) WritePacket(ts time.Time, frame []byte) error {
	if !pw.wroteHeader {
		if err := pw.writeHeader(); err != nil {
			return err
		}
		pw.wroteHeader = true
	}
	le := binary.LittleEndian
	le.PutUint32(pw.hdr[0:], uint32(ts.Unix()))
	le.PutUint32(pw.hdr[4:], uint32(ts.Nanosecond()/1000))
	le.PutUint32(pw.hdr[8:], uint32(len(frame)))
	le.PutUint32(pw.hdr[12:], uint32(len(frame)))
	if _, err := pw.w.Write(pw.hdr[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	return err
}

// WriteTCP appends the frame EncodeTCP would build for seg, with the
// given timestamp. It encodes into a buffer the Writer reuses, so a
// capture written segment by segment allocates no frame per packet.
func (pw *Writer) WriteTCP(ts time.Time, seg *TCPSegment) error {
	n := frameLen(seg)
	if cap(pw.frame) < n {
		pw.frame = make([]byte, n)
	}
	pw.frame = pw.frame[:n]
	encodeTCP(pw.frame, seg)
	return pw.WritePacket(ts, pw.frame)
}

// CaptureLen is the number of bytes a Writer writes for a capture of
// segs TCP segments carrying payloadBytes of payload in all: the file
// header, then per segment its record header and the frame WriteTCP
// encodes.
func CaptureLen(segs, payloadBytes int) int {
	return globalHeaderLen + segs*(recordHeaderLen+etherHeaderLen+ipv4HeaderLen+tcpHeaderLen) + payloadBytes
}

// Reader parses a pcap capture stream.
type Reader struct {
	r          io.Reader
	readHeader bool
	// hdr lives in the Reader for the reason Writer.hdr does.
	hdr [recordHeaderLen]byte
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

func (pr *Reader) readGlobalHeader() error {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != magicMicroseconds {
		return ErrBadMagic
	}
	if lt := le.Uint32(hdr[20:]); lt != linkTypeEthernet {
		return fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return nil
}

// ReadPacket returns the next frame and its timestamp, or io.EOF at the
// end of the capture. The frame is a fresh slice the caller owns.
func (pr *Reader) ReadPacket() (ts time.Time, frame []byte, err error) {
	return pr.readPacket(nil)
}

// readPacket is ReadPacket reading the frame into buf when it fits: the
// frame then shares buf's array and is valid until buf is reused. A nil
// buf always gets a fresh slice.
func (pr *Reader) readPacket(buf []byte) (ts time.Time, frame []byte, err error) {
	if !pr.readHeader {
		if err := pr.readGlobalHeader(); err != nil {
			return time.Time{}, nil, err
		}
		pr.readHeader = true
	}
	hdr := pr.hdr[:]
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return time.Time{}, nil, io.ErrUnexpectedEOF
		}
		return time.Time{}, nil, err
	}
	le := binary.LittleEndian
	sec := le.Uint32(hdr[0:])
	usec := le.Uint32(hdr[4:])
	inclLen := le.Uint32(hdr[8:])
	if usec >= 1e6 {
		return time.Time{}, nil, fmt.Errorf("pcap: record microseconds %d out of range", usec)
	}
	if inclLen > defaultSnapLen {
		return time.Time{}, nil, fmt.Errorf("pcap: record length %d exceeds snaplen", inclLen)
	}
	if buf == nil || uint32(cap(buf)) < inclLen {
		buf = make([]byte, inclLen)
	}
	frame = buf[:inclLen]
	if _, err := io.ReadFull(pr.r, frame); err != nil {
		return time.Time{}, nil, err
	}
	return time.Unix(int64(sec), int64(usec)*1000), frame, nil
}
