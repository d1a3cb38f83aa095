package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ffccd/internal/sim"
)

// hashMediaFull is the reference digest HashMedia must reproduce: word-wise
// FNV-1a over every byte of the image, then the tail bytes, then the final
// avalanche — a scan of the whole media with no knowledge of the dirty
// bitmap.
func hashMediaFull(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * hashPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * hashPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// checkSparseHash asserts the base-image invariant HashMedia trusts (media is
// zero on every page outside the dirty bitmap) and that the sparse digest
// equals the full scan.
func checkSparseHash(t *testing.T, d *Device, what string) {
	t.Helper()
	size := uint64(len(d.media))
	for p := uint64(0); p<<DirtyPageShift < size; p++ {
		if d.dirty[p>>6]&(1<<(p&63)) != 0 {
			continue
		}
		end := min((p+1)<<DirtyPageShift, size)
		for _, c := range d.media[p<<DirtyPageShift : end] {
			if c != 0 {
				t.Fatalf("%s: clean page %d holds non-zero media", what, p)
			}
		}
	}
	if got, want := d.HashMedia(), hashMediaFull(d.media); got != want {
		t.Fatalf("%s: HashMedia %#x != full scan %#x", what, got, want)
	}
}

// hashTestSizes covers page- and word-aligned media, sizes that are not a
// multiple of 4 KiB or of 8 bytes, a single partial page, and images large
// enough that whole 64-page bitmap words stay clean.
var hashTestSizes = []uint64{
	4096 + 5,
	128 * DirtyPageSize,
	130 * DirtyPageSize,
	129*DirtyPageSize + 1000,
	70*DirtyPageSize + 1003,
	300*DirtyPageSize + 7,
}

// randomOps drives a device through a seeded mix of cached stores, clwb,
// sfence and cache-bypassing media writes. Addresses favour the first and
// last few pages so most of the image stays clean; cached accesses stay
// within the last full line (the cache moves whole lines), media writes also
// reach the sub-line tail.
func randomOps(d *Device, ctx *sim.Ctx, rng *rand.Rand, n int) {
	size := uint64(len(d.media))
	lineEnd := size &^ (LineSize - 1)
	pick := func(limit, span uint64) uint64 {
		if limit <= span {
			return 0
		}
		switch rng.Intn(8) {
		case 0: // anywhere
			return uint64(rng.Int63n(int64(limit - span)))
		case 1, 2, 3: // the tail pages
			lo := uint64(0)
			if limit > 2*DirtyPageSize+span {
				lo = limit - 2*DirtyPageSize - span
			}
			return lo + uint64(rng.Int63n(int64(limit-span-lo)))
		default: // the head pages
			return uint64(rng.Int63n(int64(min(limit-span, 8*DirtyPageSize))))
		}
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		switch rng.Intn(6) {
		case 0, 1:
			if lineEnd > uint64(len(data)) {
				d.Store(ctx, pick(lineEnd, uint64(len(data))), data)
			}
		case 2:
			if lineEnd > 0 {
				d.Clwb(ctx, pick(lineEnd, 1))
			}
		case 3:
			d.Sfence(ctx)
		default:
			if size > uint64(len(data)) {
				d.MediaWrite(pick(size, uint64(len(data))), data)
			}
		}
	}
}

// TestHashMediaMatchesFullScan is the property pin for the sparse digest:
// after random access sequences, crashes under every policy, restores onto
// fresh, dirty and recycled devices, and RestoreMedia, HashMedia equals the
// full-image scan and media stays zero outside the dirty bitmap.
func TestHashMediaMatchesFullScan(t *testing.T) {
	salted := func(line uint64) bool { return (line*0x9E3779B97F4A7C15+0x5eed)&1 == 0 }
	policies := []struct {
		name string
		p    CrashPolicy
	}{{"drop", DropAllInflight}, {"keep", KeepAllInflight}, {"salt", salted}}

	for _, size := range hashTestSizes {
		for _, pol := range policies {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("size=%d/%s/seed=%d", size, pol.name, seed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					src, ctx := newTestDevice(size)
					checkSparseHash(t, src, "fresh")
					randomOps(src, ctx, rng, 60)
					checkSparseHash(t, src, "after ops")
					src.SetCrashPolicy(pol.p)
					src.Crash()
					checkSparseHash(t, src, "after crash")
					want := src.SnapshotMedia()
					c := src.Checkpoint()

					fresh, _ := newTestDevice(size)
					fresh.Restore(c)
					checkSparseHash(t, fresh, "restore onto fresh")
					if !bytes.Equal(fresh.media, want) {
						t.Fatal("restore onto fresh: image differs from source")
					}

					dirty, dctx := newTestDevice(size)
					randomOps(dirty, dctx, rng, 60)
					dirty.FlushAll(dctx)
					dirty.Restore(c)
					checkSparseHash(t, dirty, "restore onto dirty")
					if !bytes.Equal(dirty.media, want) {
						t.Fatal("restore onto dirty: image differs from source")
					}

					// Recycled: a released dirty array comes back through the
					// pool (when the pool hands it out) and must read as zero.
					dirty.ReleaseMedia()
					recycled, _ := newTestDevice(size)
					checkSparseHash(t, recycled, "recycled")
					recycled.Restore(c)
					checkSparseHash(t, recycled, "restore onto recycled")
					if !bytes.Equal(recycled.media, want) {
						t.Fatal("restore onto recycled: image differs from source")
					}
					recycled.ReleaseMedia()

					img, _ := newTestDevice(size)
					img.RestoreMedia(want)
					checkSparseHash(t, img, "RestoreMedia")
					img.ReleaseMedia()
					fresh.ReleaseMedia()
				})
			}
		}
	}
}
