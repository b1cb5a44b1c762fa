// Fixture: the lock graph must be acyclic and respect the declared
// nesting order (here: a.C.mu, a.D.mu, a.E.mu, a.F.mu).
package a

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

// cycleOne and cycleTwo acquire A and B in opposite orders — a
// deadlock waiting for the right interleaving.
func cycleOne(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func cycleTwo(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "lock cycle: a.A.mu → a.B.mu → a.A.mu"
	a.mu.Unlock()
	b.mu.Unlock()
}

// inverted acquires C while holding D, against the declared order.
func inverted(c *C, d *D) {
	d.mu.Lock()
	c.mu.Lock() // want "acquires a.C.mu while holding a.D.mu"
	c.mu.Unlock()
	d.mu.Unlock()
}

// nested respects the order through a callee: lockF's acquisition is
// visible via the call summary, and E before F matches the order.
func nested(e *E, f *F) {
	e.mu.Lock()
	lockF(f)
	e.mu.Unlock()
}

func lockF(f *F) {
	f.mu.Lock()
	f.mu.Unlock()
}

// G is a generic table: its methods' acquisitions are summarized once,
// on the generic declaration, and every instantiation's call uses that
// summary; G[int].mu and G[string].mu are one class, a.G.mu.
type G[T any] struct {
	mu sync.Mutex
	m  map[uint32]T
}

func (g *G[T]) get(k uint32) T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m[k]
}

// genericHolder acquires B while holding G directly; genericCycle
// acquires G while holding B, visible only through the summary of the
// instantiated method get.
func genericHolder(g *G[int], b *B) {
	g.mu.Lock()
	b.mu.Lock() // want "lock cycle: a.B.mu → a.G.mu → a.B.mu"
	b.mu.Unlock()
	g.mu.Unlock()
}

func genericCycle(g *G[string], b *B) {
	b.mu.Lock()
	g.get(2)
	b.mu.Unlock()
}
