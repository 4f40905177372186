package pcap

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPcapReader feeds arbitrary bytes to the capture reader. Reading
// every record, decoding every frame and extracting the conversations
// must never panic, and whatever records the reader accepted must come
// back identical — frames and timestamps — from a capture Writer writes.
// The checked-in corpus (testdata/fuzz/FuzzPcapReader/) starts the
// mutator from a valid three-frame capture, so it reaches DecodeTCP, and
// keeps the two inputs it broke: an IPv4 total length below the header
// length (DecodeTCP sliced out of range) and a microseconds field of a
// second or more (read as a later second the Writer cannot write).
func FuzzPcapReader(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var stamps []time.Time
		var frames [][]byte
		r := NewReader(bytes.NewReader(data))
		for {
			ts, frame, err := r.ReadPacket()
			if err != nil {
				break
			}
			DecodeTCP(frame)
			stamps, frames = append(stamps, ts), append(frames, frame)
		}
		ExtractConversations(NewReader(bytes.NewReader(data)))

		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, frame := range frames {
			if err := w.WritePacket(stamps[i], frame); err != nil {
				t.Fatal(err)
			}
		}
		back := NewReader(&buf)
		for i, frame := range frames {
			ts, got, err := back.ReadPacket()
			if err != nil {
				t.Fatalf("record %d of %d: %v", i, len(frames), err)
			}
			if !ts.Equal(stamps[i]) || !bytes.Equal(got, frame) {
				t.Fatalf("record %d read back as %v % x, written as %v % x", i, ts, got, stamps[i], frame)
			}
		}
	})
}
