package rfs

import (
	"fmt"
	"sync"

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
}

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
func (r *Router) Invalidate(vol uint32) {
	r.mu.Lock()
	delete(r.routes, vol)
	r.mu.Unlock()
}
