package alloc

import (
	"math/rand"
	"testing"
)

// benchSizes is a fixed mix of payload sizes: small nodes, the Redis
// workload's 240–492-byte values, and the occasional large object.
var benchSizes = func() []uint64 {
	r := rand.New(rand.NewSource(1))
	out := make([]uint64, 4096)
	for i := range out {
		switch r.Intn(8) {
		case 0:
			out[i] = uint64(16 + r.Intn(4000))
		case 1, 2, 3:
			out[i] = uint64(240 + r.Intn(253))
		default:
			out[i] = uint64(16 + r.Intn(112))
		}
	}
	return out
}()

// BenchmarkHeapAlloc measures one Alloc (grow) or one Free+Alloc pair
// (churn) per op.
func BenchmarkHeapAlloc(b *testing.B) {
	// grow fills a 16k-frame heap — the crash-trial pool geometry — from
	// empty, resetting it (untimed) when it runs out.
	b.Run("grow16k", func(b *testing.B) {
		h := NewHeap(0, 16384)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Alloc(benchSizes[i%len(benchSizes)]); err != nil {
				b.StopTimer()
				h.Reset()
				b.StartTimer()
			}
		}
	})
	// churn keeps a 4k-frame heap about 60 % full of mixed sizes and
	// alternates a free of a random live object with a fresh allocation, so
	// every frame carries holes of assorted sizes — the serving workload's
	// pattern.
	b.Run("churn4k", func(b *testing.B) {
		const frames = 4096
		type obj struct {
			off   uint64
			slots int
		}
		h := NewHeap(0, frames)
		r := rand.New(rand.NewSource(2))
		var live []obj
		for i := 0; h.LiveBytes() < frames*FrameSize*6/10; i++ {
			p := benchSizes[i%len(benchSizes)]
			off, err := h.Alloc(p)
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, obj{off, SlotsFor(p)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := r.Intn(len(live))
			h.Free(live[j].off, live[j].slots)
			p := benchSizes[i%len(benchSizes)]
			off, err := h.Alloc(p)
			if err != nil {
				b.Fatal(err)
			}
			live[j] = obj{off, SlotsFor(p)}
		}
	})
}
