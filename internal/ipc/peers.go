package ipc

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"

	"vkernel/internal/vproto"
)

// peerTable maps logical hosts to their UDP network addresses — the
// runtime form of the paper's §3.1 logical-host-to-network-address
// cache. Entries are seeded explicitly with AddPeer and refined by
// learning from received packets.
//
// Broadcast iterates every address on every call, so the table keeps a
// cached address snapshot, invalidated only when the address set
// actually changes (a new host, or a host rebinding to a new address).
// learn runs once per received datagram; the common case — the sender
// is already known at that address — must not churn the snapshot or
// take a write path at all beyond the lookup.
type peerTable struct {
	mu    sync.Mutex
	peers map[LogicalHost]*net.UDPAddr
	snap  []*net.UDPAddr // cached Broadcast snapshot; nil = stale
}

func (pt *peerTable) init() { pt.peers = make(map[LogicalHost]*net.UDPAddr) }

// add registers (or rebinds) the network address of a logical host.
func (pt *peerTable) add(host LogicalHost, addr *net.UDPAddr) {
	pt.mu.Lock()
	if !sameUDPAddr(pt.peers[host], addr) {
		pt.peers[host] = addr
		pt.snap = nil
	}
	pt.mu.Unlock()
}

// get returns the known address of host, or nil.
func (pt *peerTable) get(host LogicalHost) *net.UDPAddr {
	pt.mu.Lock()
	addr := pt.peers[host]
	pt.mu.Unlock()
	return addr
}

// snapshot returns the current address list for Broadcast. The returned
// slice is shared and must be treated as immutable; a fresh one is built
// only after the peer set changed.
func (pt *peerTable) snapshot() []*net.UDPAddr {
	pt.mu.Lock()
	if pt.snap == nil {
		pt.snap = make([]*net.UDPAddr, 0, len(pt.peers))
		for _, a := range pt.peers {
			pt.snap = append(pt.snap, a)
		}
	}
	s := pt.snap
	pt.mu.Unlock()
	return s
}

// learn discovers logical-host-to-network-address correspondences from
// received packets (§3.1), so replies to broadcast lookups and messages
// from previously unknown peers can be unicast — and so a peer that
// rebound (a rebooted server on a fresh ephemeral port) overrides its
// stale AddPeer entry. pkt is a datagram's first packet. It teaches
// nothing if it is too short for a header, of another protocol version
// or from host 0 (an unset pid field), or, checked only when it would
// change the table, if it fails to decode: corruption rebinds no peer.
func (pt *peerTable) learn(pkt []byte, from netip.AddrPort) {
	if len(pkt) < 12 || pkt[1] != vproto.Version {
		return
	}
	src := vproto.Pid(binary.BigEndian.Uint32(pkt[8:12]))
	host := src.Host()
	if host == 0 {
		return
	}
	// Runs once per received datagram: compare in place, and build a
	// *net.UDPAddr only for a sender that is new or has moved.
	pt.mu.Lock()
	var p vproto.Packet
	if cur := pt.peers[host]; (cur == nil || cur.AddrPort() != from) && vproto.DecodeInto(&p, pkt) == nil {
		pt.peers[host] = net.UDPAddrFromAddrPort(from)
		pt.snap = nil
	}
	pt.mu.Unlock()
}

// sameUDPAddr reports whether two addresses name the same endpoint.
func sameUDPAddr(a, b *net.UDPAddr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Port == b.Port && a.IP.Equal(b.IP) && a.Zone == b.Zone
}
