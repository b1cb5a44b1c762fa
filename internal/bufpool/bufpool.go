// Package bufpool provides size-classed, reference-counted byte buffers
// for the zero-copy packet path. Every buffer that crosses a layer
// boundary — transport receive frames, encoded packet frames held for
// retransmission or reply caching, cached file blocks lent to in-flight
// transfers — is a *Buf with an explicit owner count, so the pool can
// recycle memory the moment the last user lets go and never a moment
// earlier.
//
// Ownership rules (see the README's "Buffer ownership" section for the
// per-layer contracts):
//
//   - Get returns a buffer with one reference, owned by the caller.
//   - Retain adds a reference; every Retain must be paired with exactly
//     one Release.
//   - Release drops a reference; the last Release returns the buffer to
//     its size-class pool. Releasing a free buffer panics — a double
//     release is a lifetime bug, not a recoverable condition.
//   - Data may be re-sliced within its capacity but must not be
//     referenced after the owner's Release.
//
// Outstanding counts live buffers so tests can assert that a scenario
// returned every buffer it took (the leak check).
package bufpool

import (
	"sync"
	"sync/atomic"
)

// classSizes are the pooled capacities. They cover the path's working
// sizes: file blocks (512), interkernel frames (a maximal packet is
// header 32 + message 32 + data 1024 = 1088 ≤ 2048), transfer-unit
// staging (4096), large scratch, a 64 KB transfer (65536), and a 64 KB
// transfer with room for headers (a replication batch carrying one
// 64 KB write record is 65,557 bytes). Requests beyond the largest class
// get a dedicated allocation that is counted but not recycled.
var classSizes = [...]int{256, 512, 1024, 2048, 4096, 16384, 65536, 65536 + 4096}

// Buf is a pooled, reference-counted byte buffer.
type Buf struct {
	// Data is the current view of the buffer. Callers may re-slice it
	// within capacity (e.g. to the length actually read from a socket);
	// it must not be touched after the last Release.
	Data []byte

	slab  []byte // full-capacity backing array, restored on reuse
	class int    // size-class index, -1 for oversized one-off buffers
	refs  atomic.Int32
}

var pools [len(classSizes)]sync.Pool

// outstanding counts buffers handed out and not yet fully released.
var outstanding atomic.Int64

// classFor returns the smallest size class holding n bytes, or -1.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len(Data) == n and one reference. Buffers up
// to the largest size class come from per-class pools; larger ones are
// dedicated allocations (still leak-checked via Outstanding).
func Get(n int) *Buf {
	c := classFor(n)
	var b *Buf
	if c >= 0 {
		if v := pools[c].Get(); v != nil {
			b = v.(*Buf)
		} else {
			slab := make([]byte, classSizes[c])
			b = &Buf{slab: slab, class: c}
		}
	} else {
		slab := make([]byte, n)
		b = &Buf{slab: slab, class: -1}
	}
	b.Data = b.slab[:n]
	b.refs.Store(1)
	outstanding.Add(1)
	return b
}

// Retain adds a reference and returns b for chaining. Retaining a free
// buffer panics.
func (b *Buf) Retain() *Buf {
	if b == nil {
		return nil
	}
	if b.refs.Add(1) <= 1 {
		panic("bufpool: retain of released buffer")
	}
	return b
}

// Release drops one reference; the last release recycles the buffer.
// Release of a nil *Buf is a no-op so optional buffers need no guards.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	switch refs := b.refs.Add(-1); {
	case refs > 0:
		return
	case refs < 0:
		panic("bufpool: release of released buffer")
	}
	outstanding.Add(-1)
	if b.class >= 0 {
		b.Data = nil
		pools[b.class].Put(b)
	}
}

// Refs returns the current reference count (diagnostics and tests).
func (b *Buf) Refs() int { return int(b.refs.Load()) }

// Cap returns the buffer's full capacity (the size-class slab size).
func (b *Buf) Cap() int { return len(b.slab) }

// Outstanding returns the number of live buffers: Get calls whose final
// Release has not happened yet. A quiesced system must report zero.
func Outstanding() int64 { return outstanding.Load() }
