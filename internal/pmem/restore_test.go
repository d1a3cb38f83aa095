package pmem

import (
	"bytes"
	"testing"

	"ffccd/internal/workpool"
)

// dirtySource builds a device with a pseudo-random footprint large enough to
// take Restore's parallel span path (> parallelRestoreBytes of page data).
func dirtySource(t *testing.T, size uint64) (*Device, *DeviceCheckpoint) {
	t.Helper()
	d, ctx := newTestDevice(size)
	x := uint64(0x243F6A8885A308D3)
	buf := make([]byte, 256)
	for off := uint64(0); off+uint64(len(buf)) < size; off += 1536 {
		for i := range buf {
			x = x*6364136223846793005 + 1442695040888963407
			buf[i] = byte(x >> 56)
		}
		d.Store(ctx, off, buf)
	}
	d.FlushAll(ctx)
	c := d.Checkpoint()
	if c.CapturedBytes() < parallelRestoreBytes {
		t.Fatalf("footprint %d below the parallel threshold %d; the test is vacuous",
			c.CapturedBytes(), parallelRestoreBytes)
	}
	return d, c
}

// TestRestoreSpansDisjointAndComplete pins the span planner: zero and copy
// spans are pairwise disjoint, in-bounds, and together rewrite exactly the
// union of the target's dirty pages and the checkpoint's pages.
func TestRestoreSpansDisjointAndComplete(t *testing.T) {
	const size = 4 << 20
	// Sparse source: every third page dirty, so a fully-dirty target has
	// pages to zero between the checkpoint's copies.
	d, ctx := newTestDevice(size)
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := uint64(0); off+uint64(len(buf)) < size; off += 3 * DirtyPageSize {
		d.Store(ctx, off, buf)
	}
	d.FlushAll(ctx)
	c := d.Checkpoint()

	// A target whose dirty bitmap disagrees everywhere.
	own := make([]uint64, len(c.Dirty))
	for w := range own {
		own[w] = ^uint64(0)
	}
	spans := restoreSpans(own, c, size)

	covered := make(map[uint64]bool) // byte offsets, sampled per page
	var zeroBytes, copyBytes uint64
	for _, s := range spans {
		if s.mediaOff+s.n > size {
			t.Fatalf("span [%d,+%d) out of bounds", s.mediaOff, s.n)
		}
		for p := s.mediaOff >> DirtyPageShift; p<<DirtyPageShift < s.mediaOff+s.n; p++ {
			if covered[p] {
				t.Fatalf("page %d covered by two spans", p)
			}
			covered[p] = true
		}
		if s.zero {
			zeroBytes += s.n
		} else {
			if s.dataOff+s.n > uint64(len(c.PageData)) {
				t.Fatalf("copy span data [%d,+%d) beyond PageData %d", s.dataOff, s.n, len(c.PageData))
			}
			copyBytes += s.n
		}
	}
	if copyBytes != c.CapturedBytes() {
		t.Fatalf("copy spans move %d bytes, checkpoint holds %d", copyBytes, c.CapturedBytes())
	}
	if zeroBytes == 0 {
		t.Fatal("no zero spans despite extra target dirty pages")
	}
	// Every checkpoint page must be covered.
	for _, p := range c.Pages {
		if !covered[uint64(p)] {
			t.Fatalf("checkpoint page %d not covered", p)
		}
	}
}

// TestRestoreParallelEquivalence is the satellite pin for the parallel
// restore fast path: restoring the same checkpoint with and without worker
// helpers — and onto a dirty recycled device — yields the source media
// bit-identically. Whole images are compared byte for byte rather than by
// HashMedia: the digest reads only dirty pages, so a stale page whose dirty
// bit was wrongly cleared would slip past it.
func TestRestoreParallelEquivalence(t *testing.T) {
	const size = 4 << 20
	src, c := dirtySource(t, size)
	want := src.SnapshotMedia()

	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)

	for _, par := range []int{1, 8} {
		workpool.SetParallelism(par)

		fresh, _ := newTestDevice(size)
		fresh.Restore(c)
		if !bytes.Equal(fresh.SnapshotMedia(), want) {
			t.Errorf("parallelism %d: fresh restore image differs from source", par)
		}

		// Recycled target: stale dirty data everywhere the checkpoint does
		// not cover must be zeroed back to the base image.
		dirty, dctx := newTestDevice(size)
		junk := make([]byte, 512)
		for i := range junk {
			junk[i] = 0xEE
		}
		for off := uint64(0); off+512 < size; off += 4096 + 512 {
			dirty.Store(dctx, off, junk)
		}
		dirty.FlushAll(dctx)
		dirty.Restore(c)
		if !bytes.Equal(dirty.SnapshotMedia(), want) {
			t.Errorf("parallelism %d: recycled restore image differs from source", par)
		}
	}
}
