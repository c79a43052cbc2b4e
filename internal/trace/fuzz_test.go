package trace

import (
	"testing"

	"webfail/internal/simnet"
)

// FuzzNewPacket hardens the capture decoder: it never panics, and a
// packet either failed to decode or has its IPv4 header.
func FuzzNewPacket(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 20))
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPacket(0, simnet.In, data)
		_, _ = p.TransportFlow()
		if p.Err == nil && p.IPv4 == nil {
			t.Fatal("no error and no IPv4 header")
		}
	})
}
