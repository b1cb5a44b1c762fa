// Package lru is the recency list both block caches keep, the file
// server's (rfs) and the client's (ccache). Entries live in a slab of
// nodes linked by int32 slot numbers; a free list hands removed entries'
// slots to later inserts and a map indexes slots by key, so once the slab
// has grown to a cache's working size, inserts, hits and evictions
// allocate nothing. Slots are reused, so a slot alone does not name an
// entry across an unlock: each removal bumps the slot's incarnation, and
// Live(slot, inc) reports whether the entry seen there is still present.
package lru

// Nil ends a list: Front, Back, Next and Prev return it past the end.
const Nil int32 = -1

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32 // toward the most / least recently used entry
	inc        uint32
}

// List is a set of entries keyed by K in recency order. It does no
// locking: each cache guards its list with its own mutex.
type List[K comparable, V any] struct {
	nodes      []node[K, V]
	index      map[K]int32
	head, tail int32 // most and least recently used
	free       int32 // removed slots, linked through next
}

// New returns an empty list. Its slab and index grow with it, so a
// cache pays for the entries it fills, not for its capacity.
func New[K comparable, V any]() *List[K, V] {
	return &List[K, V]{index: make(map[K]int32), head: Nil, tail: Nil, free: Nil}
}

func (l *List[K, V]) Len() int                       { return len(l.index) }
func (l *List[K, V]) Key(s int32) K                  { return l.nodes[s].key }
func (l *List[K, V]) Inc(s int32) uint32             { return l.nodes[s].inc }
func (l *List[K, V]) Live(s int32, inc uint32) bool  { return l.nodes[s].inc == inc }
func (l *List[K, V]) Front() int32                   { return l.head }
func (l *List[K, V]) Back() int32                    { return l.tail }
func (l *List[K, V]) Next(s int32) int32             { return l.nodes[s].next } // less recently used
func (l *List[K, V]) Prev(s int32) int32             { return l.nodes[s].prev } // more recently used
func (l *List[K, V]) Find(k K) (s int32, found bool) { s, found = l.index[k]; return }

// Val returns the value of the entry at s in place, valid until the next
// Insert, which may move the slab.
func (l *List[K, V]) Val(s int32) *V { return &l.nodes[s].val }

// Insert adds k, which must be absent, as the most recently used entry
// and returns its slot.
func (l *List[K, V]) Insert(k K, v V) int32 {
	s := l.free
	if s == Nil {
		s = int32(len(l.nodes))
		l.nodes = append(l.nodes, node[K, V]{})
	} else {
		l.free = l.nodes[s].next
	}
	l.nodes[s].key, l.nodes[s].val = k, v
	l.index[k] = s
	l.pushFront(s)
	return s
}

// Remove drops the entry at s and frees its slot.
func (l *List[K, V]) Remove(s int32) {
	l.unlink(s)
	n := &l.nodes[s]
	delete(l.index, n.key)
	*n = node[K, V]{inc: n.inc + 1, next: l.free}
	l.free = s
}

// Touch makes the entry at s the most recently used.
func (l *List[K, V]) Touch(s int32) {
	if l.head != s {
		l.unlink(s)
		l.pushFront(s)
	}
}

func (l *List[K, V]) pushFront(s int32) {
	l.nodes[s].prev, l.nodes[s].next = Nil, l.head
	if l.head == Nil {
		l.tail = s
	} else {
		l.nodes[l.head].prev = s
	}
	l.head = s
}

func (l *List[K, V]) unlink(s int32) {
	n := &l.nodes[s]
	if n.prev == Nil {
		l.head = n.next
	} else {
		l.nodes[n.prev].next = n.next
	}
	if n.next == Nil {
		l.tail = n.prev
	} else {
		l.nodes[n.next].prev = n.prev
	}
}
