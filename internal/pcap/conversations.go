package pcap

import (
	"errors"
	"io"
	"sort"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
)

// Conversation is one TCP connection attempt observed in a capture,
// identified by its initial SYN.
type Conversation struct {
	// Start is the capture timestamp of the first SYN.
	Start time.Time
	// Client and Server are the initiating and responding endpoints.
	Client, Server netem.HostPort
	// Packets counts frames observed for this five-tuple.
	Packets int
	// Bytes sums TCP payload bytes in both directions.
	Bytes int
}

type convKey struct {
	a, b netem.HostPort
}

// normalKey builds a direction-independent five-tuple key.
func normalKey(src, dst netem.HostPort) convKey {
	if src.IP < dst.IP || (src.IP == dst.IP && src.Port <= dst.Port) {
		return convKey{a: src, b: dst}
	}
	return convKey{a: dst, b: src}
}

// ExtractConversations reads an entire capture and groups IPv4/TCP
// frames into conversations. Non-TCP frames are skipped. Conversations
// are returned in order of their first SYN; five-tuples whose SYN was
// not captured are ignored, mirroring standard flow analysis.
//
// Every frame is read into one buffer and decoded into one segment: a
// conversation keeps only counts, addresses and its first timestamp, so
// nothing per packet outlives the next read.
func ExtractConversations(r *Reader) ([]Conversation, error) {
	index := make(map[convKey]int)
	var convs []Conversation
	buf := make([]byte, defaultSnapLen)
	var seg TCPSegment
	for {
		ts, frame, err := r.readPacket(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		err = decodeTCP(frame, &seg)
		if errors.Is(err, ErrNotTCPIPv4) {
			continue
		}
		if err != nil {
			return nil, err
		}
		key := normalKey(seg.Src, seg.Dst)
		i, ok := index[key]
		if !ok {
			if !seg.SYN || seg.ACK {
				continue // mid-stream traffic without its SYN
			}
			i = len(convs)
			index[key] = i
			convs = append(convs, Conversation{Start: ts, Client: seg.Src, Server: seg.Dst})
		}
		convs[i].Packets++
		convs[i].Bytes += len(seg.Payload)
	}
	sort.SliceStable(convs, func(i, j int) bool { return convs[i].Start.Before(convs[j].Start) })
	return convs, nil
}

// FilterServerPort keeps conversations whose server endpoint uses port.
// The paper filters the capture for requests to port 80.
func FilterServerPort(convs []Conversation, port uint16) []Conversation {
	var out []Conversation
	for _, c := range convs {
		if c.Server.Port == port {
			out = append(out, c)
		}
	}
	return out
}

// ServiceRequests groups conversations by server address and keeps the
// servers with at least minRequests conversations — the paper's rule for
// selecting edge-service addresses ("a minimum of 20 requests").
// The returned slice is sorted by descending request count, then by
// address for determinism.
func ServiceRequests(convs []Conversation, minRequests int) []ServiceCount {
	counts := make(map[netem.HostPort][]Conversation)
	for _, c := range convs {
		counts[c.Server] = append(counts[c.Server], c)
	}
	var out []ServiceCount
	for addr, cs := range counts {
		if len(cs) >= minRequests {
			out = append(out, ServiceCount{Server: addr, Requests: cs})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Requests) != len(out[j].Requests) {
			return len(out[i].Requests) > len(out[j].Requests)
		}
		if out[i].Server.IP != out[j].Server.IP {
			return out[i].Server.IP < out[j].Server.IP
		}
		return out[i].Server.Port < out[j].Server.Port
	})
	return out
}

// ServiceCount is one service address with the conversations it received.
type ServiceCount struct {
	Server   netem.HostPort
	Requests []Conversation
}

// TotalRequests sums conversation counts across services.
func TotalRequests(services []ServiceCount) int {
	total := 0
	for _, s := range services {
		total += len(s.Requests)
	}
	return total
}
