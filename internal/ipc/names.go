package ipc

import (
	"slices"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// SetPid associates pid with a well-known logical id in the given scope
// (§2.1). Any process on the node may register names.
func (p *Proc) SetPid(logicalID uint32, pid Pid, scope Scope) {
	t := &p.node.names
	t.mu.Lock()
	t.names[logicalID] = nameEntry{pid: pid, scope: scope}
	t.mu.Unlock()
}

// GetPid resolves a logical id, broadcasting on the network when the
// mapping is not known locally (§3.1); it returns the first responder, or
// vproto.Nil when none answers within (GetPidRetries+1) rounds.
func (p *Proc) GetPid(logicalID uint32, scope Scope) Pid {
	pid := vproto.Nil
	p.lookup(logicalID, scope, 0, func(q Pid) bool { pid = q; return false })
	return pid
}

// handleGetPid answers broadcast lookups this node can resolve.
func (n *Node) handleGetPid(pkt *vproto.Packet) {
	id := pkt.Msg.Word(wordNameID)
	t := &n.names
	t.mu.Lock()
	e, ok := t.names[id]
	t.mu.Unlock()
	if !ok || e.scope&ScopeRemote == 0 {
		return
	}
	out := &vproto.Packet{
		Kind: vproto.KindGetPidReply,
		Seq:  pkt.Seq,
		Dst:  pkt.Src,
	}
	out.Msg.SetWord(wordNameID, id)
	out.Msg.SetWord(wordNamePid, uint32(e.pid))
	n.send(out, pkt.Src.Host())
}

// GetPidAll resolves every holder of a logical id reachable within a
// bounded window — the enumeration primitive behind rfs.DiscoverAll. Where
// GetPid returns on the first responder, GetPidAll keeps broadcasting one
// lookup round per GetPidTimeout until the window closes and collects
// every distinct pid that answered (a locally registered mapping is
// included without a broadcast). A window of zero selects the same
// patience GetPid has: (GetPidRetries+1) rounds. Lossy networks are the
// point of the repeated rounds — each round re-solicits the responders
// whose earlier replies (or our earlier requests) were dropped.
func (p *Proc) GetPidAll(logicalID uint32, scope Scope, window time.Duration) []Pid {
	var pids []Pid
	p.lookup(logicalID, scope, window, func(pid Pid) bool {
		if !slices.Contains(pids, pid) {
			pids = append(pids, pid)
		}
		return true
	})
	return pids
}

// lookup is the name lookup behind GetPid and GetPidAll. It offers found
// the local mapping, if scope admits it, then the pid of every broadcast
// reply, until found returns false or the window (0 → (GetPidRetries+1)
// rounds) closes; it broadcasts one round per GetPidTimeout.
func (p *Proc) lookup(logicalID uint32, scope Scope, window time.Duration, found func(Pid) bool) {
	n := p.node
	t := &n.names
	t.mu.Lock()
	if e, ok := t.names[logicalID]; ok && e.scope&scope != 0 && !found(e.pid) {
		t.mu.Unlock()
		return
	}
	if scope&ScopeRemote == 0 || n.closed.Load() {
		t.mu.Unlock()
		return
	}
	// Buffered generously: replies beyond the buffer are dropped by the
	// non-blocking send in handleGetPidReply, and the next round
	// re-solicits them.
	ch := make(chan Pid, 128)
	t.lookups[logicalID] = append(t.lookups[logicalID], ch)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		ws := t.lookups[logicalID]
		if i := slices.Index(ws, ch); i >= 0 {
			ws = slices.Delete(ws, i, i+1)
		}
		if len(ws) == 0 {
			delete(t.lookups, logicalID)
		} else {
			t.lookups[logicalID] = ws
		}
		t.mu.Unlock()
	}()

	pkt := &vproto.Packet{
		Kind:  vproto.KindGetPid,
		Seq:   n.nextSeq(),
		Src:   p.pid,
		Flags: vproto.FlagScopeRemote,
	}
	pkt.Msg.SetWord(wordNameID, logicalID)
	f := bufpool.Get(pkt.WireSize())
	defer f.Release()
	if _, err := pkt.EncodeInto(f.Data); err != nil {
		return
	}
	if window <= 0 {
		window = time.Duration(n.cfg.GetPidRetries+1) * n.cfg.GetPidTimeout
	}
	deadline := time.Now().Add(window)
	for {
		_ = n.transport.Broadcast(f.Data)
		round := time.NewTimer(n.cfg.GetPidTimeout)
	collect:
		for {
			select {
			case pid := <-ch:
				if !found(pid) {
					round.Stop()
					return
				}
			case <-round.C:
				break collect
			}
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// handleGetPidReply wakes outstanding lookups. Waiters stay registered —
// each removes itself when it is done — so an all-responders collection
// (GetPidAll) keeps receiving after the first reply, while GetPid stops
// at the first pid delivered.
func (n *Node) handleGetPidReply(pkt *vproto.Packet) {
	id := pkt.Msg.Word(wordNameID)
	pid := Pid(pkt.Msg.Word(wordNamePid))
	t := &n.names
	t.mu.Lock()
	ws := append([]chan Pid(nil), t.lookups[id]...)
	t.mu.Unlock()
	for _, ch := range ws {
		select {
		case ch <- pid:
		default:
		}
	}
}
