package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/pcap"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// WritePcap renders the workload as a classic .pcap capture starting at
// start: one full TCP conversation per request, plus the noise traffic
// (below-threshold services, non-port-80 conversations) that the paper's
// filter has to discard. Packets are written in timestamp order.
func (t *Trace) WritePcap(w io.Writer, start time.Time) error {
	rng := vclock.NewRand(t.Config.Seed + 1)
	// Every packet is kept as its segment and encoded only when it is
	// written, into the Writer's one frame buffer. Payloads are all
	// zeros, so every segment's payload is a slice of one zero block.
	type stamped struct {
		ts  time.Time
		seg pcap.TCPSegment
	}
	conversations := len(t.Requests) + t.Config.NoiseServices*t.Config.NoiseRequestsEach + t.Config.NonHTTPConversations
	packets := make([]stamped, 0, packetsPerConversation*conversations)
	zeros := make([]byte, maxPayload)

	emitConversation := func(at time.Time, client netem.HostPort, server netem.HostPort, reqLen, respLen int) {
		packets = append(packets,
			stamped{at, pcap.TCPSegment{Src: client, Dst: server, SYN: true}},
			stamped{at.Add(1 * time.Millisecond), pcap.TCPSegment{Src: server, Dst: client, SYN: true, ACK: true}},
			stamped{at.Add(2 * time.Millisecond), pcap.TCPSegment{Src: client, Dst: server, ACK: true}},
			stamped{at.Add(2500 * time.Microsecond), pcap.TCPSegment{Src: client, Dst: server, PSH: true, ACK: true, Payload: zeros[:reqLen]}},
			stamped{at.Add(5 * time.Millisecond), pcap.TCPSegment{Src: server, Dst: client, PSH: true, ACK: true, Payload: zeros[:respLen]}},
			stamped{at.Add(6 * time.Millisecond), pcap.TCPSegment{Src: client, Dst: server, FIN: true, ACK: true}},
		)
	}

	ephemeral := make(map[netem.IP]uint16)
	nextPort := func(ip netem.IP) uint16 {
		p, ok := ephemeral[ip]
		if !ok {
			p = 40000
		}
		ephemeral[ip] = p + 1
		return p
	}

	// Hot-service requests.
	for _, r := range t.Requests {
		clientIP := ClientAddr(r.Client)
		client := netem.HostPort{IP: clientIP, Port: nextPort(clientIP)}
		emitConversation(start.Add(r.At), client, ServiceAddr(r.Service), 100+rng.Intn(200), 500+rng.Intn(4000))
	}
	// Below-threshold noise services on port 80.
	for s := 0; s < t.Config.NoiseServices; s++ {
		server := netem.HostPort{IP: noiseServiceBase + netem.IP(s) + 1, Port: 80}
		for k := 0; k < t.Config.NoiseRequestsEach; k++ {
			clientIP := ClientAddr(rng.Intn(t.Config.Clients))
			client := netem.HostPort{IP: clientIP, Port: nextPort(clientIP)}
			at := start.Add(time.Duration(rng.Float64() * float64(t.Config.Duration)))
			emitConversation(at, client, server, 100, 1000)
		}
	}
	// Non-HTTP conversations the port filter must drop.
	for k := 0; k < t.Config.NonHTTPConversations; k++ {
		server := netem.HostPort{IP: hotServiceBase + netem.IP(rng.Intn(t.Config.HotServices)) + 1, Port: 443}
		clientIP := ClientAddr(rng.Intn(t.Config.Clients))
		client := netem.HostPort{IP: clientIP, Port: nextPort(clientIP)}
		at := start.Add(time.Duration(rng.Float64() * float64(t.Config.Duration)))
		emitConversation(at, client, server, 200, 2000)
	}

	slices.SortStableFunc(packets, func(a, b stamped) int { return a.ts.Compare(b.ts) })
	// A writer that can grow (a bytes.Buffer) grows once, to the
	// capture's exact size, instead of doubling as it fills.
	if g, ok := w.(interface{ Grow(int) }); ok {
		payload := 0
		for i := range packets {
			payload += len(packets[i].seg.Payload)
		}
		g.Grow(pcap.CaptureLen(len(packets), payload))
	}
	pw := pcap.NewWriter(w)
	for i := range packets {
		if err := pw.WriteTCP(packets[i].ts, &packets[i].seg); err != nil {
			return err
		}
	}
	return nil
}

// packetsPerConversation is what WritePcap emits per conversation:
// handshake, request, response and FIN. maxPayload bounds the payloads
// it draws: requests below 300 B, responses below 4 500 B.
const (
	packetsPerConversation = 6
	maxPayload             = 4500
)

// FromPcap recovers a workload from a capture by applying the paper's
// methodology: extract TCP conversations, keep port 80, keep servers
// with at least minRequests requests. Services are indexed by descending
// request count. Client indices are recovered from the client address
// block; foreign clients map to index 0.
func FromPcap(r io.Reader, duration time.Duration, minRequests int) (*Trace, error) {
	convs, err := pcap.ExtractConversations(pcap.NewReader(r))
	if err != nil {
		return nil, err
	}
	if len(convs) == 0 {
		return nil, fmt.Errorf("trace: capture contains no conversations")
	}
	captureStart := convs[0].Start
	services := pcap.ServiceRequests(pcap.FilterServerPort(convs, 80), minRequests)

	tr := &Trace{
		Config: Config{
			Duration:      duration,
			HotServices:   len(services),
			MinPerService: minRequests,
		},
		Counts: make([]int, len(services)),
	}
	for idx, svc := range services {
		tr.Counts[idx] = len(svc.Requests)
		for _, conv := range svc.Requests {
			client := 0
			if conv.Client.IP > clientBase && conv.Client.IP <= clientBase+255 {
				client = int(conv.Client.IP - clientBase - 10)
			}
			tr.Requests = append(tr.Requests, Request{
				At:      conv.Start.Sub(captureStart),
				Service: idx,
				Client:  client,
			})
		}
	}
	sort.Slice(tr.Requests, func(i, j int) bool {
		if tr.Requests[i].At != tr.Requests[j].At {
			return tr.Requests[i].At < tr.Requests[j].At
		}
		return tr.Requests[i].Service < tr.Requests[j].Service
	})
	tr.Config.TotalRequests = len(tr.Requests)
	return tr, nil
}
