package rfs

import (
	"fmt"
	"sync"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/vproto"
)

// Router resolves volumes to the server currently hosting them and
// caches the routes. Resolution is one broadcast name lookup of the
// volume's logical name (LogicalVolumeBase+vol) — the name service is
// the cluster's routing table, and whichever server advertises the name
// owns the volume.
//
// Routes go stale when a volume's server dies or the volume moves; the
// routed Client drops the route (Invalidate) on ErrTimeout,
// ErrNoProcess or a StatusNoVolume reply and the next operation
// re-resolves — failover without any client configuration. A Router is
// safe for concurrent use and is meant to be shared by all clients on a
// node.
type Router struct {
	node *ipc.Node
	p    *ipc.Proc

	mu     sync.Mutex
	routes map[uint32]ipc.Pid

	// Read-set state: per volume, the primary-reported fan-out set
	// (primary first, then in-sync replicas) that ResolveRead round-
	// robins over, refreshed when its TTL lapses. sendMu serializes the
	// OpQueryReplicas exchanges on p — GetPid is safe concurrently, a
	// Send exchange is not.
	readMu sync.Mutex
	reads  map[uint32]*readSet
	sendMu sync.Mutex
}

// readSet is one volume's cached read fan-out set.
type readSet struct {
	pids    []ipc.Pid
	next    int
	expires time.Time
}

// readSetTTL bounds how long ResolveRead trusts a cached read set; it is
// also the bound on reads reaching a replica the primary has since
// dropped from the in-sync set.
const readSetTTL = 500 * time.Millisecond

// NewRouter attaches a lookup process on node and returns an empty
// router. Close releases the process.
func NewRouter(node *ipc.Node) (*Router, error) {
	p, err := node.Attach("rfs-router")
	if err != nil {
		return nil, err
	}
	return &Router{
		node:   node,
		p:      p,
		routes: make(map[uint32]ipc.Pid),
		reads:  make(map[uint32]*readSet),
	}, nil
}

// Close detaches the router's lookup process.
func (r *Router) Close() { r.node.Detach(r.p) }

// Resolve returns the pid of the server hosting vol, from the route
// cache or via a broadcast lookup. A volume nobody advertises within the
// lookup's bounded patience resolves to ErrNoVolume — retryable once a
// server hosting it comes (back) up.
func (r *Router) Resolve(vol uint32) (ipc.Pid, error) {
	r.mu.Lock()
	pid, ok := r.routes[vol]
	r.mu.Unlock()
	if ok {
		return pid, nil
	}
	pid = r.p.GetPid(LogicalVolumeBase+vol, ipc.ScopeBoth)
	if pid == vproto.Nil {
		return vproto.Nil, fmt.Errorf("%w: volume %d", ErrNoVolume, vol)
	}
	r.mu.Lock()
	r.routes[vol] = pid
	r.mu.Unlock()
	return pid, nil
}

// Invalidate drops the cached route for vol (the server stopped
// answering or disowned the volume); the next Resolve re-discovers.
// The volume's read set is left alone: its members are evicted
// individually (InvalidateRead) as reads against them fail, so one dead
// primary does not stop the surviving replicas from serving reads while
// failover runs.
func (r *Router) Invalidate(vol uint32) {
	r.mu.Lock()
	delete(r.routes, vol)
	r.mu.Unlock()
}

// ResolveRead returns the next server to read vol from, round-robining
// over the volume's live read set: the primary plus every replica it
// counts in-sync. The set comes from the primary (OpQueryReplicas) and
// is refreshed on a TTL; writes must keep using Resolve — they pin to
// the primary.
func (r *Router) ResolveRead(vol uint32) (ipc.Pid, error) {
	r.readMu.Lock()
	if rs := r.reads[vol]; rs != nil && len(rs.pids) > 0 && time.Now().Before(rs.expires) {
		pid := rs.pids[rs.next%len(rs.pids)]
		rs.next++
		r.readMu.Unlock()
		return pid, nil
	}
	r.readMu.Unlock()
	primary, err := r.Resolve(vol)
	if err != nil {
		return vproto.Nil, err
	}
	pids := r.queryReadSet(vol, primary)
	r.readMu.Lock()
	rs := r.reads[vol]
	if rs == nil {
		rs = &readSet{}
		r.reads[vol] = rs
	}
	rs.pids = pids
	rs.expires = time.Now().Add(readSetTTL)
	pid := rs.pids[rs.next%len(rs.pids)]
	rs.next++
	r.readMu.Unlock()
	return pid, nil
}

// InvalidateRead drops one server from vol's cached read set (a read
// against it failed — a dead or no-longer-serving replica); reads fall
// back to the remaining members until the next TTL refresh. Dropping
// the last member discards the set.
func (r *Router) InvalidateRead(vol uint32, pid ipc.Pid) {
	r.readMu.Lock()
	defer r.readMu.Unlock()
	rs := r.reads[vol]
	if rs == nil {
		return
	}
	kept := rs.pids[:0]
	for _, p := range rs.pids {
		if p != pid {
			kept = append(kept, p)
		}
	}
	rs.pids = kept
	if len(rs.pids) == 0 {
		delete(r.reads, vol)
	}
}

// queryReadSet asks the volume's primary for the read fan-out set; any
// failure degrades to the primary alone (always a correct read target).
func (r *Router) queryReadSet(vol uint32, primary ipc.Pid) []ipc.Pid {
	buf := make([]byte, vproto.MaxData)
	m := buildRequest(vol, OpQueryReplicas, 0, 0, uint32(len(buf)))
	seg := ipc.Segment{Data: buf, Access: ipc.SegWrite}
	r.sendMu.Lock()
	err := r.p.Send(&m, primary, &seg)
	r.sendMu.Unlock()
	if status, count := parseReply(&m); err == nil && status == StatusOK && count > 0 {
		if pids, ok := decodeIDs[ipc.Pid](buf, count); ok {
			return pids
		}
	}
	return []ipc.Pid{primary}
}
