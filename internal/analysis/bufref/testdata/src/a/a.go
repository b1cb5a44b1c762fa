// Fixture: a buffer reference must die — released, stored, returned,
// or handed off — on every path out of the function.
package a

import (
	"errors"

	"vkernel/internal/bufpool"
)

var errTooSmall = errors.New("too small")

// leak forgets the reference on the early-return path.
func leak(n int) int {
	b := bufpool.Get(n)
	if n > 4096 {
		return -1 // want "b may still own a buffer reference"
	}
	b.Release()
	return n
}

// doubleRelease releases a reference the deferred Release already owns.
func doubleRelease(n int) {
	b := bufpool.Get(n)
	defer b.Release()
	b.Release() // want "double release of b"
}

// condOwned owns b only when err is nil; both paths are clean.
func condOwned(n int) (*bufpool.Buf, error) {
	b, err := acquire(n)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func acquire(n int) (*bufpool.Buf, error) {
	if n < 0 {
		return nil, errTooSmall
	}
	return bufpool.Get(n), nil
}

type cache struct {
	bufs map[uint32]*bufpool.Buf
}

func (c *cache) get(id uint32) (*bufpool.Buf, bool) {
	b, ok := c.bufs[id]
	return b, ok
}

// commaOk owns b only when ok is true; the miss path is clean.
func commaOk(c *cache, id uint32) int {
	if b, ok := c.get(id); ok {
		n := b.Cap()
		b.Release()
		return n
	}
	return 0
}

// stash transfers ownership into a ref-holding structure.
func stash(c *cache, id uint32, n int) {
	c.bufs[id] = bufpool.Get(n)
}

// probe walks comma-ok lookups until one hits, keeping the hit; the
// misses it steps past, loop after loop, leave nothing owned.
func probe(c *cache, held []*bufpool.Buf, ids []uint32) []*bufpool.Buf {
	for i := 0; i < len(ids); i++ {
		for ; i < len(ids); i++ {
			if b, ok := c.get(ids[i]); ok {
				held = append(held, b)
				break
			}
		}
	}
	return held
}
