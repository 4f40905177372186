package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
)

func seg(src, dst string, syn, ack bool, payload []byte) *TCPSegment {
	return &TCPSegment{
		Src:     netem.ParseHostPort(src),
		Dst:     netem.ParseHostPort(dst),
		SYN:     syn,
		ACK:     ack,
		PSH:     len(payload) > 0,
		Payload: payload,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &TCPSegment{
		Src:     netem.ParseHostPort("192.168.1.5:49152"),
		Dst:     netem.ParseHostPort("203.0.113.9:80"),
		Seq:     12345,
		Ack:     67890,
		SYN:     true,
		ACK:     true,
		PSH:     true,
		FIN:     true,
		RST:     false,
		Payload: []byte("GET / HTTP/1.1\r\n"),
	}
	frame := EncodeTCP(in)
	out, err := DecodeTCP(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.Seq != in.Seq || out.Ack != in.Ack {
		t.Errorf("addressing mismatch: %+v vs %+v", out, in)
	}
	if out.SYN != in.SYN || out.ACK != in.ACK || out.PSH != in.PSH || out.FIN != in.FIN || out.RST != in.RST {
		t.Errorf("flags mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("payload mismatch: %q vs %q", out.Payload, in.Payload)
	}
}

func TestEncodedChecksumValid(t *testing.T) {
	frame := EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", true, false, nil))
	if !ValidateIPv4Checksum(frame) {
		t.Error("encoder produced invalid IPv4 checksum")
	}
	frame[etherHeaderLen+8]++ // corrupt TTL
	if ValidateIPv4Checksum(frame) {
		t.Error("corrupted header still validates")
	}
}

func TestDecodeRejectsNonIP(t *testing.T) {
	frame := EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", true, false, nil))
	frame[12], frame[13] = 0x08, 0x06 // ARP ethertype
	if _, err := DecodeTCP(frame); !errors.Is(err, ErrNotTCPIPv4) {
		t.Errorf("err = %v, want ErrNotTCPIPv4", err)
	}
}

func TestDecodeRejectsNonTCP(t *testing.T) {
	frame := EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", true, false, nil))
	frame[etherHeaderLen+9] = 17 // UDP
	if _, err := DecodeTCP(frame); !errors.Is(err, ErrNotTCPIPv4) {
		t.Errorf("err = %v, want ErrNotTCPIPv4", err)
	}
}

func TestDecodeTruncatedFrames(t *testing.T) {
	frame := EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", true, false, []byte("x")))
	for _, n := range []int{0, 10, etherHeaderLen + 5, etherHeaderLen + ipv4HeaderLen + 5} {
		if _, err := DecodeTCP(frame[:n]); err == nil {
			t.Errorf("DecodeTCP of %d-byte prefix succeeded", n)
		}
	}
}

func TestSegmentFlagsMapping(t *testing.T) {
	s := &TCPSegment{SYN: true, ACK: true}
	if f := s.Flags(); !f.Has(netem.FlagSYN | netem.FlagACK) {
		t.Errorf("Flags = %v", f)
	}
	s = &TCPSegment{RST: true, FIN: true, PSH: true}
	f := s.Flags()
	if !f.Has(netem.FlagRST) || !f.Has(netem.FlagFIN) || !f.Has(netem.FlagPSH) || f.Has(netem.FlagSYN) {
		t.Errorf("Flags = %v", f)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Unix(1700000000, 123000)
	frames := [][]byte{
		EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", true, false, nil)),
		EncodeTCP(seg("10.0.0.2:80", "10.0.0.1:1000", true, true, nil)),
		EncodeTCP(seg("10.0.0.1:1000", "10.0.0.2:80", false, true, []byte("GET /"))),
	}
	for i, f := range frames {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i := range frames {
		ts, frame, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(frame, frames[i]) {
			t.Errorf("packet %d frame mismatch", i)
		}
		want := base.Add(time.Duration(i) * time.Millisecond)
		if ts.Unix() != want.Unix() || ts.Nanosecond()/1000 != want.Nanosecond()/1000 {
			t.Errorf("packet %d ts = %v, want %v", i, ts, want)
		}
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader(make([]byte, 24)))
	if _, _, err := r.ReadPacket(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// writeConversation emits a full request/response conversation.
func writeConversation(t *testing.T, w *Writer, at time.Time, client, server string, reqLen, respLen int) {
	t.Helper()
	c, s := netem.ParseHostPort(client), netem.ParseHostPort(server)
	packets := []*TCPSegment{
		{Src: c, Dst: s, SYN: true},
		{Src: s, Dst: c, SYN: true, ACK: true},
		{Src: c, Dst: s, ACK: true},
		{Src: c, Dst: s, PSH: true, ACK: true, Payload: make([]byte, reqLen)},
		{Src: s, Dst: c, PSH: true, ACK: true, Payload: make([]byte, respLen)},
		{Src: c, Dst: s, FIN: true, ACK: true},
	}
	for i, p := range packets {
		if err := w.WritePacket(at.Add(time.Duration(i)*time.Millisecond), EncodeTCP(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExtractConversations(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Unix(1700000000, 0)
	writeConversation(t, w, base, "192.168.0.10:50001", "203.0.113.1:80", 100, 5000)
	writeConversation(t, w, base.Add(time.Second), "192.168.0.11:50002", "203.0.113.1:80", 80, 400)
	writeConversation(t, w, base.Add(2*time.Second), "192.168.0.10:50003", "203.0.113.2:443", 60, 0)
	// Mid-stream stray packet without SYN: ignored.
	w.WritePacket(base.Add(3*time.Second), EncodeTCP(seg("192.168.0.99:5000", "203.0.113.9:80", false, false, []byte("x"))))

	convs, err := ExtractConversations(NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(convs) != 3 {
		t.Fatalf("got %d conversations, want 3", len(convs))
	}
	if convs[0].Server != netem.ParseHostPort("203.0.113.1:80") {
		t.Errorf("first conversation server = %v", convs[0].Server)
	}
	if convs[0].Packets != 6 {
		t.Errorf("first conversation packets = %d, want 6", convs[0].Packets)
	}
	if convs[0].Bytes != 5100 {
		t.Errorf("first conversation bytes = %d, want 5100", convs[0].Bytes)
	}
	port80 := FilterServerPort(convs, 80)
	if len(port80) != 2 {
		t.Errorf("port-80 conversations = %d, want 2", len(port80))
	}
}

func TestServiceRequestsThreshold(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Unix(1700000000, 0)
	// Service A: 3 requests; service B: 1 request.
	for i := 0; i < 3; i++ {
		writeConversation(t, w, base.Add(time.Duration(i)*time.Second),
			netem.HostPort{IP: netem.ParseIP("192.168.0.10"), Port: uint16(50000 + i)}.String(),
			"203.0.113.1:80", 10, 10)
	}
	writeConversation(t, w, base, "192.168.0.10:51000", "203.0.113.2:80", 10, 10)

	convs, err := ExtractConversations(NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	services := ServiceRequests(FilterServerPort(convs, 80), 2)
	if len(services) != 1 {
		t.Fatalf("services = %d, want 1 (threshold filters B)", len(services))
	}
	if got := services[0].Server; got != netem.ParseHostPort("203.0.113.1:80") {
		t.Errorf("kept service = %v", got)
	}
	if TotalRequests(services) != 3 {
		t.Errorf("total requests = %d, want 3", TotalRequests(services))
	}
}

// Property: encode/decode round-trips arbitrary segments.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		in := &TCPSegment{
			Src:     netem.HostPort{IP: netem.IP(srcIP), Port: srcPort},
			Dst:     netem.HostPort{IP: netem.IP(dstIP), Port: dstPort},
			Seq:     seq,
			Ack:     ack,
			SYN:     flags&1 != 0,
			ACK:     flags&2 != 0,
			FIN:     flags&4 != 0,
			RST:     flags&8 != 0,
			PSH:     flags&16 != 0,
			Payload: payload,
		}
		frame := EncodeTCP(in)
		if !ValidateIPv4Checksum(frame) {
			return false
		}
		out, err := DecodeTCP(frame)
		if err != nil {
			return false
		}
		return out.Src == in.Src && out.Dst == in.Dst &&
			out.Seq == in.Seq && out.Ack == in.Ack &&
			out.SYN == in.SYN && out.ACK == in.ACK &&
			out.FIN == in.FIN && out.RST == in.RST && out.PSH == in.PSH &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWriteTCPMatchesEncodeTCP: WriteTCP reuses one frame buffer, so a
// short frame after a long one must not carry the long one's bytes. The
// capture it writes equals the one WritePacket writes from EncodeTCP,
// and ReadPacket hands out frames that later reads do not overwrite.
func TestWriteTCPMatchesEncodeTCP(t *testing.T) {
	base := time.Unix(1700000000, 250000)
	segs := []*TCPSegment{
		seg("10.0.0.1:1000", "10.0.0.2:80", false, true, bytes.Repeat([]byte{0xff}, 300)),
		seg("10.0.0.1:1000", "10.0.0.2:80", true, false, nil),
		{Src: netem.ParseHostPort("10.0.0.2:80"), Dst: netem.ParseHostPort("10.0.0.1:1000"), Seq: 7, Ack: 9, FIN: true, RST: true, Payload: []byte("bye")},
		seg("192.168.1.5:49152", "203.0.113.9:8501", true, true, make([]byte, 1500)),
	}
	var viaEncode, viaTCP bytes.Buffer
	we, wt := NewWriter(&viaEncode), NewWriter(&viaTCP)
	for i, s := range segs {
		ts := base.Add(time.Duration(i) * time.Millisecond)
		if err := we.WritePacket(ts, EncodeTCP(s)); err != nil {
			t.Fatal(err)
		}
		if err := wt.WriteTCP(ts, s); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(viaTCP.Bytes(), viaEncode.Bytes()) {
		t.Fatal("WriteTCP capture differs from WritePacket(EncodeTCP)")
	}
	r := NewReader(&viaTCP)
	var frames [][]byte
	for range segs {
		_, frame, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	for i, s := range segs {
		if !bytes.Equal(frames[i], EncodeTCP(s)) {
			t.Errorf("frame %d changed after later reads", i)
		}
	}
}

// captureWith writes convs conversations to one server, each a SYN and
// then data packets carrying 100 bytes each.
func captureWith(t *testing.T, convs, data int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	at := time.Unix(1700000000, 0)
	server := netem.ParseHostPort("203.0.113.1:80")
	payload := make([]byte, 100)
	for c := 0; c < convs; c++ {
		client := netem.HostPort{IP: netem.ParseIP("192.168.0.10"), Port: uint16(40000 + c)}
		if err := w.WriteTCP(at, &TCPSegment{Src: client, Dst: server, SYN: true}); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < data; d++ {
			at = at.Add(time.Millisecond)
			if err := w.WriteTCP(at, &TCPSegment{Src: client, Dst: server, PSH: true, ACK: true, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestExtractConversationsAllocs: extraction keeps counts, addresses
// and timestamps per conversation and nothing per packet, so ten times
// the data packets per conversation cost no more allocations.
func TestExtractConversationsAllocs(t *testing.T) {
	extract := func(capture []byte) func() {
		return func() {
			convs, err := ExtractConversations(NewReader(bytes.NewReader(capture)))
			if err != nil || len(convs) != 64 {
				t.Fatalf("%d conversations, %v; want 64", len(convs), err)
			}
		}
	}
	few := testing.AllocsPerRun(10, extract(captureWith(t, 64, 2)))
	many := testing.AllocsPerRun(10, extract(captureWith(t, 64, 20)))
	t.Logf("%v allocs with 2 data packets per conversation, %v with 20", few, many)
	if many > few {
		t.Errorf("allocations grow with packets per conversation: %v with 2, %v with 20", few, many)
	}
}
