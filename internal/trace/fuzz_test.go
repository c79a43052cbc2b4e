package trace

import (
	"testing"

	"webfail/internal/simnet"
)

// FuzzNewPacket hardens the layered decoder.
func FuzzNewPacket(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 20))
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPacket(0, simnet.In, data)
		// Accessors never panic regardless of decode outcome.
		_ = p.IPv4()
		_ = p.TCP()
		_ = p.UDP()
		_ = p.Payload()
		_, _ = p.TransportFlow()
		if p.ErrorLayer() == nil && p.IPv4() == nil {
			t.Fatal("no error and no IPv4 layer")
		}
	})
}
