package ipc

import (
	"slices"
	"sync/atomic"
	"testing"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// TestAlienLRUEvictionOrder drives the alien table directly: eviction must
// reclaim the least-recently-touched replied descriptor in order, never an
// unreplied one, and answering a duplicate from the reply cache counts as
// a touch.
func TestAlienLRUEvictionOrder(t *testing.T) {
	var tab alienTable
	tab.init()

	mk := func(src Pid) *alien {
		a := &alien{src: src, seq: 1}
		tab.mu.Lock()
		tab.m[src] = a
		tab.mu.Unlock()
		return a
	}
	a1, a2, a3 := mk(1), mk(2), mk(3)

	tab.mu.Lock()
	if tab.evictLocked() {
		t.Fatal("evicted with no replied descriptors")
	}
	tab.mu.Unlock()

	for _, a := range []*alien{a1, a2, a3} {
		f := bufpool.Get(8)
		tab.cacheReply(a, f, 0)
		f.Release() // the table holds its own reference now
	}

	// Touch a1 (as answering a duplicate from the cache does): eviction
	// order becomes a2, a3, a1.
	tab.mu.Lock()
	tab.lruTouchLocked(a1)
	tab.mu.Unlock()

	for _, want := range []Pid{2, 3, 1} {
		tab.mu.Lock()
		before := len(tab.m)
		if !tab.evictLocked() {
			tab.mu.Unlock()
			t.Fatalf("eviction of %v failed", want)
		}
		if len(tab.m) != before-1 {
			tab.mu.Unlock()
			t.Fatal("eviction did not shrink the table")
		}
		_, still := tab.m[want]
		tab.mu.Unlock()
		if still {
			t.Fatalf("expected %v to be the eviction victim", want)
		}
	}
}

// TestAlienLRUDropUnlinks: a dropped descriptor must leave the eviction
// list; a descriptor orphaned by a newer message must not be pushed onto
// it by a late cacheReply (evicting a stale entry would delete the new
// descriptor under the same source key).
func TestAlienLRUDropUnlinks(t *testing.T) {
	var tab alienTable
	tab.init()

	old := &alien{src: 7, seq: 1}
	tab.mu.Lock()
	tab.m[7] = old
	tab.mu.Unlock()
	f := bufpool.Get(8)
	tab.cacheReply(old, f, 0)
	f.Release()
	tab.drop(old)
	tab.mu.Lock()
	if tab.lruHead != nil || tab.lruTail != nil {
		tab.mu.Unlock()
		t.Fatal("dropped descriptor left on the eviction list")
	}
	tab.mu.Unlock()

	// Orphaned descriptor: replaced in the map before its reply lands.
	stale := &alien{src: 9, seq: 1}
	tab.mu.Lock()
	tab.m[9] = stale
	tab.removeLocked(stale)
	fresh := &alien{src: 9, seq: 2}
	tab.m[9] = fresh
	tab.mu.Unlock()
	late := bufpool.Get(8)
	tab.cacheReply(stale, late, 0)
	late.Release() // not stored: the stale descriptor is no longer current
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if stale.onLRU {
		t.Fatal("orphaned descriptor pushed onto the eviction list")
	}
	if tab.m[9] != fresh {
		t.Fatal("fresh descriptor displaced")
	}
}

// TestLateDuplicateAfterReuse: a sender's next Send reuses its replied
// descriptor in place, and a late duplicate of the Send it superseded,
// arriving after the reuse, is filtered exactly as when the descriptor
// was replaced: counted as a duplicate, neither delivered nor answered.
// A duplicate of the current Send is still answered from the reply cache.
func TestLateDuplicateAfterReuse(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	var delivered atomic.Int64
	srv := mustSpawn(nb, "server", func(p *Proc) {
		for {
			_, src, err := p.Receive()
			if err != nil {
				return
			}
			delivered.Add(1)
			var reply Message
			_ = p.Reply(&reply, src)
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	descriptor := func() (*alien, uint32) {
		nb.aliens.mu.Lock()
		defer nb.aliens.mu.Unlock()
		a := nb.aliens.m[client.Pid()]
		return a, a.seq
	}
	exchange := func() {
		t.Helper()
		var m Message
		if err := client.Send(&m, srv.Pid(), nil); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	first, seq1 := descriptor()
	exchange()
	reused, seq2 := descriptor()
	if reused != first || seq2 == seq1 {
		t.Fatalf("second Send: descriptor %p seq %d, first %p seq %d; want the first reused", reused, seq2, first, seq1)
	}

	// inject hands nb a Send from the client as if off the wire.
	inject := func(seq uint32) {
		pkt := vproto.Packet{Kind: vproto.KindSend, Seq: seq, Src: client.Pid(), Dst: srv.Pid()}
		f := bufpool.Get(pkt.WireSize())
		if _, err := pkt.EncodeInto(f.Data); err != nil {
			t.Fatal(err)
		}
		nb.handlePacket(f)
		f.Release()
	}
	names := []string{"ipc.dups_filtered", "ipc.remote_replies", "ipc.reply_pendings_sent", "ipc.nacks_sent"}
	snap := func() []int64 {
		out := make([]int64, len(names))
		for i, name := range names {
			out[i] = counter(nb, name)
		}
		return out
	}
	before, got := snap(), delivered.Load()
	inject(seq1)
	after := snap()
	if want := []int64{before[0] + 1, before[1], before[2], before[3]}; !slices.Equal(after, want) {
		t.Fatalf("late duplicate of the superseded Send: %v = %v, want %v", names, after, want)
	}
	if a, seq := descriptor(); a != reused || seq != seq2 || !a.replied {
		t.Fatalf("late duplicate changed the descriptor: seq %d replied %v", seq, a.replied)
	}
	inject(seq2)
	if n := counter(nb, "ipc.remote_replies"); n != after[1]+1 {
		t.Fatalf("duplicate of the current Send: remote_replies %d, want %d (answered from the reply cache)", n, after[1]+1)
	}
	if n := delivered.Load(); n != got {
		t.Fatalf("a duplicate was delivered: %d deliveries, want %d", n, got)
	}
}
