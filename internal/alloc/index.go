package alloc

import "math/bits"

// The allocation index is volatile and derived: every part of it is a
// function of the bitmaps and frame states, it is never checkpointed, and
// Restore rebuilds it. It answers first fit's question — the lowest frame at
// or after i that may hold a free run of n slots — in O(log frames):
//
//   - hint[f] is an upper bound on frame f's longest free run. Allocation
//     only lowers it to min(hint, freeSlots) (no scan); a free raises it to
//     at most the merged run around the freed slots; a probe that finds the
//     bound loose tightens it to the exact run.
//   - tree is a max tree over frames whose leaf is hint[f] for frames that
//     accept allocations (FrameActive, FrameDestination) and 0 otherwise.
//   - freeBits has one bit per FrameFree frame, so opening a new frame is a
//     TrailingZeros64 over the bitmap.
//
// A leaf below n proves the frame cannot fit n slots, so the tree skips
// exactly the frames whose probe would fail, and the placement is the same
// as a frame-by-frame first fit.

// allocatable reports whether Alloc may place objects in a frame of state st.
func allocatable(st FrameState) bool { return st == FrameActive || st == FrameDestination }

// initIndex allocates the index for h.frames frames.
func (h *Heap) initIndex() {
	h.leaves = 1
	for h.leaves < h.frames {
		h.leaves <<= 1
	}
	h.hint = make([]uint16, h.frames)
	h.tree = make([]uint16, 2*h.leaves)
	h.freeBits = make([]uint64, (h.frames+63)/64)
}

// resetIndex sets the index of an all-free heap.
func (h *Heap) resetIndex() {
	for f := range h.hint {
		h.hint[f] = SlotsPerFrame
	}
	clear(h.tree)
	for w := range h.freeBits {
		h.freeBits[w] = ^uint64(0)
	}
	if r := h.frames % 64; r != 0 {
		h.freeBits[len(h.freeBits)-1] = 1<<r - 1
	}
}

// rebuildIndex recomputes the whole index from the bitmaps and states,
// scanning only frames that are neither full nor empty.
func (h *Heap) rebuildIndex() {
	clear(h.freeBits)
	for f := 0; f < h.frames; f++ {
		switch fs := h.freeSlots[f]; fs {
		case 0, SlotsPerFrame:
			h.hint[f] = fs
		default:
			h.hint[f] = uint16(h.longestRun(f))
		}
		h.tree[h.leaves+f] = h.leafValue(f)
		if h.state[f] == FrameFree {
			h.freeBits[f/64] |= 1 << (f % 64)
		}
	}
	clear(h.tree[h.leaves+h.frames:])
	for i := h.leaves - 1; i >= 1; i-- {
		h.tree[i] = max(h.tree[2*i], h.tree[2*i+1])
	}
}

func (h *Heap) leafValue(f int) uint16 {
	if allocatable(h.state[f]) {
		return h.hint[f]
	}
	return 0
}

// updateLeaf re-derives frame f's leaf and repairs its ancestors, stopping
// at the first one whose maximum is unchanged.
func (h *Heap) updateLeaf(f int) {
	i := h.leaves + f
	v := h.leafValue(f)
	if h.tree[i] == v {
		return
	}
	h.tree[i] = v
	for i > 1 {
		i >>= 1
		m := max(h.tree[2*i], h.tree[2*i+1])
		if h.tree[i] == m {
			return
		}
		h.tree[i] = m
	}
}

// setHint stores a new upper bound on frame f's longest free run.
func (h *Heap) setHint(f int, v uint16) {
	h.hint[f] = v
	h.updateLeaf(f)
}

// setState changes frame f's state and its index entries (usedFrames is
// the caller's).
func (h *Heap) setState(f int, st FrameState) {
	h.state[f] = st
	if st == FrameFree {
		h.freeBits[f/64] |= 1 << (f % 64)
	} else {
		h.freeBits[f/64] &^= 1 << (f % 64)
	}
	h.updateLeaf(f)
}

// firstLeaf returns the lowest frame in [lo, hi) whose leaf is at least n,
// or -1.
func (h *Heap) firstLeaf(lo, hi int, n uint16) int {
	t := h.tree
	// Walk the canonical cover of [lo, hi) bottom-up: left-boundary nodes
	// arrive in ascending order and are checked at once; right-boundary
	// nodes arrive in descending order and are checked afterwards, last
	// pushed first.
	var right [64]int
	nr := 0
	for l, r := lo+h.leaves, hi+h.leaves; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			if t[l] >= n {
				return h.descend(l, n)
			}
			l++
		}
		if r&1 == 1 {
			r--
			right[nr] = r
			nr++
		}
	}
	for nr > 0 {
		nr--
		if t[right[nr]] >= n {
			return h.descend(right[nr], n)
		}
	}
	return -1
}

// descend returns the leftmost frame under node i whose leaf is at least n;
// node i itself must be at least n.
func (h *Heap) descend(i int, n uint16) int {
	for i < h.leaves {
		i <<= 1
		if h.tree[i] < n {
			i++
		}
	}
	return i - h.leaves
}

// fit returns the lowest frame in [lo, hi) holding a free run of n slots and
// the run's first slot, or (-1, -1). Each candidate's hint is confirmed by
// findRun; a loose one is tightened to the exact run and the search goes on
// past it.
func (h *Heap) fit(lo, hi, n int) (frame, slot int) {
	for lo < hi {
		f := h.firstLeaf(lo, hi, uint16(n))
		if f < 0 {
			break
		}
		s, longest := h.findRun(f, n)
		if s >= 0 {
			return f, s
		}
		h.setHint(f, uint16(longest))
		lo = f + 1
	}
	return -1, -1
}

// lowestFree returns the lowest FrameFree frame, or -1.
func (h *Heap) lowestFree() int {
	for w, word := range h.freeBits {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// findRun returns the first slot of the lowest run of n free slots in a
// frame, or -1 together with the frame's longest free run. It walks maximal
// free runs a word at a time, carrying a run across word boundaries.
func (h *Heap) findRun(frame, n int) (slot, longest int) {
	words := h.slotBits[frame*wordsPerFrame : (frame+1)*wordsPerFrame]
	start, run := 0, 0
	for i, w := range words {
		free := ^w
		for b := 0; b < 64; {
			// Used slots up to the next free one (64 when none is left).
			if used := bits.TrailingZeros64(free >> b); used > 0 {
				longest = max(longest, run)
				run = 0
				if b += used; b >= 64 {
					break
				}
			}
			// Free slots from b; the shifted-in high bits bound the count
			// by the end of the word.
			k := bits.TrailingZeros64(^(free >> b))
			if run == 0 {
				start = i*64 + b
			}
			if run += k; run >= n {
				return start, run
			}
			b += k
		}
	}
	return -1, max(longest, run)
}

// runAround returns the length of the maximal free run containing slot s
// (0 when s is in use).
func (h *Heap) runAround(frame, s int) int {
	words := h.slotBits[frame*wordsPerFrame : (frame+1)*wordsPerFrame]
	n := 0
	// Free slots from s upward.
	for i, b := s/64, s%64; i < wordsPerFrame; i, b = i+1, 0 {
		k := bits.TrailingZeros64(^(^words[i] >> b))
		n += k
		if k < 64-b {
			break
		}
	}
	if n == 0 {
		return 0
	}
	// Free slots below s; a shift by 64 leaves no bits, so top == 0 moves
	// straight on to the word below.
	for i, top := s/64, s%64; i >= 0; i, top = i-1, 64 {
		k := bits.LeadingZeros64(^(^words[i] << (64 - top)))
		n += k
		if k < top {
			break
		}
	}
	return n
}

// longestRun returns a frame's longest free run.
func (h *Heap) longestRun(frame int) int {
	_, longest := h.findRun(frame, SlotsPerFrame+1)
	return longest
}

// runMask returns the bitmap word holding slot and the mask of the run
// [slot, slot+n) within that word; the mask covers k ≤ n slots, stopping at
// the word's end.
func runMask(slot, n int) (w int, mask uint64, k int) {
	b := slot % 64
	k = min(n, 64-b)
	return slot / 64, (^uint64(0) >> (64 - k)) << b, k
}
