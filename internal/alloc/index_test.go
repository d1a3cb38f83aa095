package alloc

import (
	"math/rand"
	"testing"
)

// refFindRun is the bit-at-a-time run search the indexed allocator
// replaced, kept as the reference for findRun.
func refFindRun(h *Heap, frame, n int) int {
	base := frame * wordsPerFrame
	run := 0
	start := 0
	for s := 0; s < SlotsPerFrame; s++ {
		if h.slotBits[base+s/64]&(1<<(s%64)) == 0 {
			if run == 0 {
				start = s
			}
			run++
			if run == n {
				return start
			}
		} else {
			run = 0
		}
	}
	return -1
}

// refLongest is a frame's longest free run, one bit at a time.
func refLongest(h *Heap, frame int) int {
	longest, run := 0, 0
	for s := 0; s < SlotsPerFrame; s++ {
		if h.slotBits[frame*wordsPerFrame+s/64]&(1<<(s%64)) == 0 {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}

// refRunAround is the maximal free run containing slot s, one bit at a time.
func refRunAround(h *Heap, frame, s int) int {
	free := func(i int) bool { return h.slotBits[frame*wordsPerFrame+i/64]&(1<<(i%64)) == 0 }
	if !free(s) {
		return 0
	}
	lo, hi := s, s
	for lo > 0 && free(lo-1) {
		lo--
	}
	for hi < SlotsPerFrame-1 && free(hi+1) {
		hi++
	}
	return hi - lo + 1
}

// refPlace is the unindexed first fit the index replaced: visit every frame
// from the cursor, wrapping around, then take the lowest free frame. It
// returns where Alloc must place n slots, or ok=false for out of memory.
func refPlace(h *Heap, n int) (frame, slot int, ok bool) {
	for i := 0; i < h.frames; i++ {
		f := (h.cursor + i) % h.frames
		if h.state[f] != FrameActive && h.state[f] != FrameDestination {
			continue
		}
		if int(h.freeSlots[f]) < n {
			continue
		}
		if s := refFindRun(h, f, n); s >= 0 {
			return f, s, true
		}
	}
	for f := 0; f < h.frames; f++ {
		if h.state[f] == FrameFree {
			return f, 0, true
		}
	}
	return 0, 0, false
}

// checkIndex asserts the allocation index invariants and findRun's
// agreement with the reference search.
func checkIndex(t *testing.T, h *Heap, r *rand.Rand) {
	t.Helper()
	for f := 0; f < h.frames; f++ {
		exact := refLongest(h, f)
		if int(h.hint[f]) < exact {
			t.Fatalf("frame %d: hint %d below longest free run %d", f, h.hint[f], exact)
		}
		if got := h.longestRun(f); got != exact {
			t.Fatalf("frame %d: longestRun %d, reference %d", f, got, exact)
		}
		for i := 0; i < 3; i++ {
			n := 1 + r.Intn(SlotsPerFrame)
			if got, want := func() int { s, _ := h.findRun(f, n); return s }(), refFindRun(h, f, n); got != want {
				t.Fatalf("frame %d: findRun(%d) = %d, reference %d", f, n, got, want)
			}
			s := r.Intn(SlotsPerFrame)
			if got, want := h.runAround(f, s), refRunAround(h, f, s); got != want {
				t.Fatalf("frame %d: runAround(%d) = %d, reference %d", f, s, got, want)
			}
		}
		want := uint16(0)
		if allocatable(h.state[f]) {
			want = h.hint[f]
		}
		if h.tree[h.leaves+f] != want {
			t.Fatalf("frame %d (state %d): leaf %d, want %d", f, h.state[f], h.tree[h.leaves+f], want)
		}
		if free := h.freeBits[f/64]>>(f%64)&1 == 1; free != (h.state[f] == FrameFree) {
			t.Fatalf("frame %d (state %d): free bit %v", f, h.state[f], free)
		}
	}
	for i := h.leaves + h.frames; i < 2*h.leaves; i++ {
		if h.tree[i] != 0 {
			t.Fatalf("padding leaf %d = %d", i-h.leaves, h.tree[i])
		}
	}
	if r := h.frames % 64; r != 0 && h.freeBits[len(h.freeBits)-1]>>r != 0 {
		t.Fatal("free bits set past the last frame")
	}
	for i := 1; i < h.leaves; i++ {
		if m := max(h.tree[2*i], h.tree[2*i+1]); h.tree[i] != m {
			t.Fatalf("tree node %d = %d, max of children %d", i, h.tree[i], m)
		}
	}
}

// TestIndexedPlacementMatchesReference drives random allocator histories and
// checks every Alloc against the unindexed first fit, plus the index
// invariants every few steps.
func TestIndexedPlacementMatchesReference(t *testing.T) {
	counts := []int{1, 2, 3, 5, 31, 63, 64, 65, 100, 127, 128, 129, 200}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		counts = append(counts, 1+r.Intn(200))
	}
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for ci, frames := range counts {
		runPlacementHistory(t, frames, steps, int64(ci))
	}
}

type liveObj struct {
	off   uint64
	slots int
}

func randPayload(r *rand.Rand) uint64 {
	switch r.Intn(10) {
	case 0:
		return uint64(r.Intn(4081)) // up to a whole frame
	case 1, 2, 3:
		return uint64(240 + r.Intn(253))
	default:
		return uint64(r.Intn(128))
	}
}

func runPlacementHistory(t *testing.T, frames, steps int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	h := NewHeap(4096, frames)
	var live []liveObj
	var saved *HeapCheckpoint
	var savedLive []liveObj
	dropFrame := func(f int) {
		kept := live[:0]
		for _, o := range live {
			if h.FrameOf(o.off) != f {
				kept = append(kept, o)
			}
		}
		live = kept
	}
	for step := 0; step < steps; step++ {
		switch op := r.Intn(100); {
		case op < 45: // Alloc
			p := randPayload(r)
			n := SlotsFor(p)
			wf, ws, ok := refPlace(h, n)
			off, err := h.Alloc(p)
			if !ok {
				if err == nil {
					t.Fatalf("frames=%d step %d: Alloc(%d) = %d, reference is out of memory", frames, step, p, off)
				}
				continue
			}
			if err != nil || off != h.OffsetOf(wf, ws) {
				t.Fatalf("frames=%d step %d: Alloc(%d) = %d, %v; reference (%d,%d) = %d",
					frames, step, p, off, err, wf, ws, h.OffsetOf(wf, ws))
			}
			live = append(live, liveObj{off, n})
		case op < 80: // Free
			if len(live) == 0 {
				continue
			}
			i := r.Intn(len(live))
			h.Free(live[i].off, live[i].slots)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 87: // PlaceAt, sometimes overlapping
			f := r.Intn(frames)
			if st := h.State(f); st != FrameFree && !allocatable(st) {
				continue
			}
			n := 1 + r.Intn(32)
			s := r.Intn(SlotsPerFrame - n + 1)
			free := true
			for i := s; i < s+n; i++ {
				free = free && h.slotBits[f*wordsPerFrame+i/64]&(1<<(i%64)) == 0
			}
			err := h.PlaceAt(f, s, n)
			if (err == nil) != free {
				t.Fatalf("frames=%d step %d: PlaceAt(%d,%d,%d) = %v, run free %v", frames, step, f, s, n, err, free)
			}
			if err == nil {
				live = append(live, liveObj{h.OffsetOf(f, s), n})
			}
		case op < 92: // SetState
			f := r.Intn(frames)
			switch st := h.State(f); {
			case st == FrameFree:
				h.SetState(f, FrameActive)
			case h.freeSlots[f] == SlotsPerFrame && r.Intn(2) == 0:
				h.SetState(f, FrameFree)
			default:
				h.SetState(f, []FrameState{FrameActive, FrameRelocation, FrameDestination, FrameMeshed}[r.Intn(4)])
			}
		case op < 94: // ReleaseFrame
			f := r.Intn(frames)
			h.ReleaseFrame(f)
			dropFrame(f)
		case op < 96: // RebuildFromMark over a random survivor set
			var entries []RebuildEntry
			kept := live[:0]
			for _, o := range live {
				if r.Intn(5) != 0 {
					entries = append(entries, RebuildEntry{o.off, o.slots})
					kept = append(kept, o)
				}
			}
			live = kept
			h.RebuildFromMark(entries)
		case op < 98: // Checkpoint
			saved = h.Checkpoint()
			savedLive = append(savedLive[:0], live...)
		default: // Restore, into this heap or a fresh one
			if saved == nil {
				continue
			}
			if r.Intn(2) == 0 {
				h = NewHeap(4096, frames)
			}
			h.Restore(saved)
			live = append(live[:0], savedLive...)
		}
		if step%16 == 0 {
			checkIndex(t, h, r)
		}
	}
	checkIndex(t, h, r)
}
