package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// memWatch samples, every 5 ms, the heap the last garbage collection found
// live and keeps the peak since the last mark. Unlike the memory the process
// holds, the live heap does not count garbage the collector has yet to
// reclaim, so it does not move with collection timing.
type memWatch struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

// liveBytes is the heap the last garbage collection found live.
func liveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startMemWatch() *memWatch {
	w := &memWatch{done: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-tick.C:
				w.observe()
			}
		}
	}()
	return w
}

func (w *memWatch) observe() {
	live := liveBytes()
	for {
		p := w.peak.Load()
		if live <= p || w.peak.CompareAndSwap(p, live) {
			return
		}
	}
}

// mark restarts the peak at the current holding.
func (w *memWatch) mark() { w.peak.Store(liveBytes()) }

// peakMiB is the peak since the last mark, in MiB.
func (w *memWatch) peakMiB() float64 {
	w.observe()
	return float64(w.peak.Load()) / (1 << 20)
}

// stop ends sampling and waits for the sampler to exit.
func (w *memWatch) stop() {
	close(w.done)
	w.wg.Wait()
}
