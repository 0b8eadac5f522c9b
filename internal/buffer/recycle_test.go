package buffer

import (
	"bytes"
	"testing"
)

// TestRecycledNewPageIsZeroed fills a page, drops it from the pool and takes
// a new page: the new frame reuses the dropped buffer and starts zeroed.
func TestRecycledNewPageIsZeroed(t *testing.T) {
	dev := newDev(16, 0)
	p := New(16) // one frame
	_, h, err := p.NewPage(dev)
	if err != nil {
		t.Fatal(err)
	}
	old := h.Bytes()
	for i := range old {
		old[i] = 0x5A
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	_, h2, err := p.NewPage(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Unfix(true)
	if &h2.Bytes()[0] != &old[0] {
		t.Fatal("NewPage did not reuse the dropped frame's buffer")
	}
	if !bytes.Equal(h2.Bytes(), make([]byte, 16)) {
		t.Fatalf("recycled NewPage frame not zeroed: %v", h2.Bytes())
	}
}

// TestRefixAfterDirtyEvictionReadsBack dirties a page, lets a miss of
// another page evict it (recycling its buffer for that miss) and fixes it
// again: the write-back finished before the buffer was reused, so the page
// reads back intact.
func TestRefixAfterDirtyEvictionReadsBack(t *testing.T) {
	dev := newDev(16, 2)
	other := bytes.Repeat([]byte{0x11}, 16)
	if err := dev.Write(1, other); err != nil {
		t.Fatal(err)
	}
	p := New(16) // one frame: every miss evicts the other page
	want := []byte("written in pool!")
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Bytes(), want)
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		h1, err := p.Fix(dev, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h1.Bytes(), other) {
			t.Fatalf("round %d: page 1 reads %q", round, h1.Bytes())
		}
		h1.Unfix(true)
		h0, err := p.Fix(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h0.Bytes(), want) {
			t.Fatalf("round %d: page 0 reads %q after its dirty eviction, want %q", round, h0.Bytes(), want)
		}
		h0.Unfix(true)
	}
	if st := p.Stats(); st.WriteBacks != 1 || st.Evictions != 6 {
		t.Fatalf("write-backs %d, evictions %d; want 1 and 6", st.WriteBacks, st.Evictions)
	}
}

// TestRecycledBufferPoison keeps the slice of an unfixed page past its
// eviction. Race-detector builds poison recycled buffers, so the stale
// slice reads poisonByte; other builds leave the old contents.
func TestRecycledBufferPoison(t *testing.T) {
	dev := newDev(16, 1)
	p := New(16)
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale := h.Bytes()
	copy(stale, "stale page bytes")
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	want := []byte("stale page bytes")
	if poisonFrames {
		want = bytes.Repeat([]byte{poisonByte}, 16)
	}
	if !bytes.Equal(stale, want) {
		t.Fatalf("poisonFrames=%v: use after Unfix reads %q, want %q", poisonFrames, stale, want)
	}
}

// TestFreeListStaysWithinBudget drops more frame buffers than the budget
// holds: the free list keeps at most the pool's budget in bytes.
func TestFreeListStaysWithinBudget(t *testing.T) {
	p := New(64)
	for i := 0; i < 8; i++ {
		p.putBuf(make([]byte, 16))
	}
	p.putBuf(make([]byte, 8))
	if p.free.bytes != 64 || len(p.free.bySize[16]) != 4 || len(p.free.bySize[8]) != 0 {
		t.Fatalf("free list holds %d bytes (%d of 16, %d of 8), want 64 bytes of 16-byte buffers",
			p.free.bytes, len(p.free.bySize[16]), len(p.free.bySize[8]))
	}
	if b := p.getBuf(8); len(b) != 8 {
		t.Fatalf("getBuf(8) returned %d bytes", len(b))
	}
	p.getBuf(16)
	if p.free.bytes != 48 {
		t.Fatalf("free list holds %d bytes after one reuse, want 48", p.free.bytes)
	}
}
