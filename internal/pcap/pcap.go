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
	var hdr [recordHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(ts.Unix()))
	le.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	le.PutUint32(hdr[8:], uint32(len(frame)))
	le.PutUint32(hdr[12:], uint32(len(frame)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	return err
}

// Reader parses a pcap capture stream.
type Reader struct {
	r          io.Reader
	readHeader bool
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
// end of the capture.
func (pr *Reader) ReadPacket() (ts time.Time, frame []byte, err error) {
	if !pr.readHeader {
		if err := pr.readGlobalHeader(); err != nil {
			return time.Time{}, nil, err
		}
		pr.readHeader = true
	}
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
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
	frame = make([]byte, inclLen)
	if _, err := io.ReadFull(pr.r, frame); err != nil {
		return time.Time{}, nil, err
	}
	return time.Unix(int64(sec), int64(usec)*1000), frame, nil
}
