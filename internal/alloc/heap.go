// Package alloc implements the persistent heap allocator underneath a PMOP:
// 4 KB frames carved into 16-byte slots (the glibc alignment granularity the
// paper's PMFT design assumes, §4.3.1), first-fit allocation within partially
// occupied frames, and fragmentation-ratio bookkeeping (eq. 1 of the paper).
//
// First fit is indexed (index.go): a per-frame upper bound on the longest
// free run, a max tree over those bounds and a free-frame bitmap pick the
// same (frame, slot) as a frame-by-frame scan from the cursor in O(log
// frames) plus one word-level run search. The bounds are kept cheaply and
// may be loose (allocation lowers one only to the frame's free-slot count);
// a probe that fails tightens its frame's bound to the exact run. The index
// is derived from the bitmaps, never checkpointed, and rebuilt on Restore.
//
// Allocator metadata is volatile, in the Makalu/Atlas style the paper builds
// on: object headers in PM are the ground truth, and after a crash or reopen
// the bitmaps are rebuilt from a reachability pass (RebuildFromMark). This
// keeps pmalloc/pfree free of persist barriers without losing soundness —
// anything the bitmaps forget is garbage by definition, and the GC reclaims
// it, which is exactly the paper's persistent-leak story.
package alloc

import (
	"fmt"
	"math/bits"
	"sync"
)

// SlotSize is the allocation granularity in bytes.
const SlotSize = 16

// FrameSize is the allocator frame size (4 KB; huge pages are groups of
// frames for footprint accounting only).
const FrameSize = 4096

// SlotsPerFrame is the number of slots in one frame.
const SlotsPerFrame = FrameSize / SlotSize // 256

// FrameState describes how a frame participates in allocation and
// defragmentation.
type FrameState uint8

const (
	// FrameFree has no live objects and is available.
	FrameFree FrameState = iota
	// FrameActive holds objects and accepts new allocations.
	FrameActive
	// FrameRelocation is being evacuated; no new allocations.
	FrameRelocation
	// FrameDestination receives relocated objects; only the GC places there.
	FrameDestination
	// FrameMeshed participates in a Mesh pairing: its physical page is
	// shared with another virtual frame, so no new allocations may land in
	// it (a free virtual slot may be occupied physically).
	FrameMeshed
)

// wordsPerFrame is the bitmap words per frame (256 bits).
const wordsPerFrame = SlotsPerFrame / 64

// Heap manages the slots of a pool's object heap. All methods are safe for
// concurrent use.
type Heap struct {
	mu sync.Mutex

	heapOff uint64 // pool offset of frame 0
	frames  int

	slotBits  []uint64 // allocation bitmap: 4 words/frame, bit = slot in use
	startBits []uint64 // set at the first slot of each allocation
	freeSlots []uint16 // per-frame free slot count
	state     []FrameState

	usedFrames int
	liveBytes  uint64 // sum of allocated sizes (header included)
	dupBytes   uint64 // bytes double-counted while relocation copies coexist

	cursor int // next frame to consider for allocation

	// Allocation index (index.go).
	hint     []uint16 // per frame: upper bound on the longest free run
	tree     []uint16 // max tree over frames; leaves at [leaves, 2*leaves)
	leaves   int      // power of two ≥ frames
	freeBits []uint64 // bit f set iff state[f] == FrameFree
	touched  []int    // RebuildFromMark scratch: frames it activated
}

// NewHeap creates an empty heap of the given geometry.
func NewHeap(heapOff uint64, frames int) *Heap {
	h := &Heap{
		heapOff:   heapOff,
		frames:    frames,
		slotBits:  make([]uint64, frames*wordsPerFrame),
		startBits: make([]uint64, frames*wordsPerFrame),
		freeSlots: make([]uint16, frames),
		state:     make([]FrameState, frames),
	}
	for i := range h.freeSlots {
		h.freeSlots[i] = SlotsPerFrame
	}
	h.initIndex()
	h.resetIndex()
	return h
}

// Frames returns the heap size in frames.
func (h *Heap) Frames() int { return h.frames }

// HeapOff returns the pool offset of frame 0.
func (h *Heap) HeapOff() uint64 { return h.heapOff }

// OffsetOf converts (frame, slot) to a pool offset.
func (h *Heap) OffsetOf(frame, slot int) uint64 {
	return h.heapOff + uint64(frame)*FrameSize + uint64(slot)*SlotSize
}

// Locate converts a pool offset to (frame, slot); offsets must be
// slot-aligned and inside the heap.
func (h *Heap) Locate(off uint64) (frame, slot int) {
	rel := off - h.heapOff
	return int(rel / FrameSize), int(rel % FrameSize / SlotSize)
}

// FrameOf returns the frame index containing off.
func (h *Heap) FrameOf(off uint64) int { return int((off - h.heapOff) / FrameSize) }

// SlotsFor returns the slot count for a payload of n bytes plus the
// 16-byte object header.
func SlotsFor(payload uint64) int {
	return int((payload + 16 + SlotSize - 1) / SlotSize)
}

// setRange sets (v) or clears the run [slot, slot+n) of one frame's words.
func (h *Heap) setRange(words []uint64, frame, slot, n int, v bool) {
	base := frame * wordsPerFrame
	for n > 0 {
		w, mask, k := runMask(slot, n)
		if v {
			words[base+w] |= mask
		} else {
			words[base+w] &^= mask
		}
		slot += k
		n -= k
	}
}

// Alloc reserves a run of slots for a payload of `payload` bytes and returns
// the pool offset of the object's header slot. It never allocates into
// relocation frames (being evacuated) or meshed frames (physical slots may
// be occupied); destination frames are fine — their relocation targets are
// already reserved, and refusing their tails would force allocation-heavy
// workloads to open fresh frames during every epoch.
func (h *Heap) Alloc(payload uint64) (uint64, error) {
	n := SlotsFor(payload)
	if n > SlotsPerFrame {
		return 0, fmt.Errorf("alloc: object of %d bytes exceeds frame capacity", payload)
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	// First fit over active frames starting at the cursor, wrapping around;
	// fall back to the lowest free frame.
	f, slot := h.fit(h.cursor, h.frames, n)
	if f < 0 {
		f, slot = h.fit(0, h.cursor, n)
	}
	if f < 0 {
		if f = h.lowestFree(); f < 0 {
			return 0, fmt.Errorf("alloc: out of memory (%d frames, %d live bytes)", h.frames, h.liveBytes)
		}
		h.setState(f, FrameActive)
		h.usedFrames++
		slot = 0
	}
	h.commitAlloc(f, slot, n)
	h.cursor = f
	return h.OffsetOf(f, slot), nil
}

// commitAlloc reserves the run [s, s+n) of frame f, lowering the frame's
// hint to its free-slot count (a bound that needs no scan).
func (h *Heap) commitAlloc(f, s, n int) {
	h.setRange(h.slotBits, f, s, n, true)
	h.setRange(h.startBits, f, s, 1, true)
	h.freeSlots[f] -= uint16(n)
	h.liveBytes += uint64(n) * SlotSize
	if h.hint[f] > h.freeSlots[f] {
		h.setHint(f, h.freeSlots[f])
	}
}

// PlaceAt reserves an explicit (frame, slot, n) run — the GC uses it to
// install relocated objects at their PMFT-determined destinations. The frame
// must be a destination or active frame and the run free.
func (h *Heap) PlaceAt(frame, slot, n int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	base := frame * wordsPerFrame
	for s, left := slot, n; left > 0; {
		w, mask, k := runMask(s, left)
		if h.slotBits[base+w]&mask != 0 {
			return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) overlaps a live allocation", frame, slot, n)
		}
		s += k
		left -= k
	}
	if h.state[frame] == FrameFree {
		h.setState(frame, FrameDestination)
		h.usedFrames++
	}
	h.commitAlloc(frame, slot, n)
	return nil
}

// Free releases the run of n slots starting at pool offset off.
func (h *Heap) Free(off uint64, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, s := h.Locate(off)
	h.freeRun(f, s, n)
}

func (h *Heap) freeRun(f, s, n int) {
	h.setRange(h.slotBits, f, s, n, false)
	h.setRange(h.startBits, f, s, 1, false)
	h.freeSlots[f] += uint16(n)
	h.liveBytes -= uint64(n) * SlotSize
	// The longest run is now the old one (at most hint) or the merged run
	// around the freed slots.
	h.hint[f] = min(h.freeSlots[f], max(h.hint[f], uint16(h.runAround(f, s))))
	if h.freeSlots[f] == SlotsPerFrame && allocatable(h.state[f]) {
		h.setState(f, FrameFree)
		h.usedFrames--
	} else {
		h.updateLeaf(f)
	}
}

// ReleaseFrame forcibly frees every slot of a frame (end of relocation) and
// marks it free.
func (h *Heap) ReleaseFrame(frame int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	base := frame * wordsPerFrame
	for w := 0; w < wordsPerFrame; w++ {
		inUse := bits.OnesCount64(h.slotBits[base+w])
		h.liveBytes -= uint64(inUse) * SlotSize
		h.slotBits[base+w] = 0
		h.startBits[base+w] = 0
	}
	if h.state[frame] != FrameFree {
		h.usedFrames--
	}
	h.freeSlots[frame] = SlotsPerFrame
	h.hint[frame] = SlotsPerFrame
	h.setState(frame, FrameFree)
}

// SetState transitions a frame's state (GC summary marks relocation and
// destination frames; terminate reverts destination frames to active).
func (h *Heap) SetState(frame int, st FrameState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.state[frame]
	if old == st {
		return
	}
	if old == FrameFree && st != FrameFree {
		h.usedFrames++
	}
	if old != FrameFree && st == FrameFree {
		h.usedFrames--
	}
	h.setState(frame, st)
}

// State returns a frame's state.
func (h *Heap) State(frame int) FrameState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state[frame]
}

// IsStart reports whether the slot at pool offset off begins an allocation.
func (h *Heap) IsStart(off uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, s := h.Locate(off)
	return h.startBits[f*wordsPerFrame+s/64]&(1<<(s%64)) != 0
}

// FrameObjects returns the starting slots of allocations in a frame.
func (h *Heap) FrameObjects(frame int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	base := frame * wordsPerFrame
	for w := 0; w < wordsPerFrame; w++ {
		word := h.startBits[base+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= 1 << b
		}
	}
	return out
}

// FrameBitmap returns a copy of a frame's slot-allocation bitmap words.
func (h *Heap) FrameBitmap(frame int) [wordsPerFrame]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out [wordsPerFrame]uint64
	copy(out[:], h.slotBits[frame*wordsPerFrame:(frame+1)*wordsPerFrame])
	return out
}

// FreeFrames returns up to n free frame indices in ascending order —
// deterministic destination-frame selection for the GC summary phase.
func (h *Heap) FreeFrames(n int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, n)
	for w := 0; w < len(h.freeBits) && len(out) < n; w++ {
		for word := h.freeBits[w]; word != 0 && len(out) < n; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// FrameInfo summarises a frame for the GC summary phase.
type FrameInfo struct {
	Frame     int
	State     FrameState
	UsedSlots int
	Objects   int
}

// Snapshot returns per-frame occupancy for all non-free frames.
func (h *Heap) Snapshot() []FrameInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []FrameInfo
	for f := 0; f < h.frames; f++ {
		if h.state[f] == FrameFree {
			continue
		}
		base := f * wordsPerFrame
		used, objs := 0, 0
		for w := 0; w < wordsPerFrame; w++ {
			used += bits.OnesCount64(h.slotBits[base+w])
			objs += bits.OnesCount64(h.startBits[base+w])
		}
		out = append(out, FrameInfo{Frame: f, State: h.state[f], UsedSlots: used, Objects: objs})
	}
	return out
}

// Reset clears all allocator state (used before RebuildFromMark).
func (h *Heap) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.slotBits {
		h.slotBits[i] = 0
		h.startBits[i] = 0
	}
	for i := range h.freeSlots {
		h.freeSlots[i] = SlotsPerFrame
		h.state[i] = FrameFree
	}
	h.usedFrames = 0
	h.liveBytes = 0
	h.dupBytes = 0
	h.cursor = 0
	h.resetIndex()
}

// AddDup records bytes that are temporarily allocated twice (an in-flight
// relocation epoch holds both source and destination copies); Frag subtracts
// them so live data stays the logical single-copy size.
func (h *Heap) AddDup(n uint64) {
	h.mu.Lock()
	h.dupBytes += n
	h.mu.Unlock()
}

// SubDup removes previously recorded duplicate bytes.
func (h *Heap) SubDup(n uint64) {
	h.mu.Lock()
	if n > h.dupBytes {
		n = h.dupBytes
	}
	h.dupBytes -= n
	h.mu.Unlock()
}

// RebuildEntry describes one live object found by a reachability pass.
type RebuildEntry struct {
	Off   uint64 // header offset
	Slots int
}

// RebuildFromMark reconstructs the bitmaps from the live-object set — the
// post-crash/reopen path. Unreachable allocations are implicitly reclaimed
// (the paper's persistent-leak fix). Only the frames it activates are
// reindexed.
func (h *Heap) RebuildFromMark(live []RebuildEntry) {
	h.Reset()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.touched = h.touched[:0]
	for _, e := range live {
		f, s := h.Locate(e.Off)
		if h.state[f] == FrameFree {
			// The leaf is set once, after the frame's bits are final.
			h.state[f] = FrameActive
			h.freeBits[f/64] &^= 1 << (f % 64)
			h.usedFrames++
			h.touched = append(h.touched, f)
		}
		h.setRange(h.slotBits, f, s, e.Slots, true)
		h.setRange(h.startBits, f, s, 1, true)
		h.freeSlots[f] -= uint16(e.Slots)
		h.liveBytes += uint64(e.Slots) * SlotSize
	}
	for _, f := range h.touched {
		h.setHint(f, uint16(h.longestRun(f)))
	}
}
