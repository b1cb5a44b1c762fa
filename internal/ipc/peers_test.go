package ipc

import (
	"net"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

func encodeFrom(t *testing.T, src Pid) []byte {
	t.Helper()
	pkt := &vproto.Packet{Kind: vproto.KindSend, Seq: 1, Src: src, Dst: vproto.MakePid(9, 1)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func addrOf(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLearnRejectsGarbage(t *testing.T) {
	var pt peerTable
	pt.init()
	from := addrOf(t, "127.0.0.1:9000").AddrPort()

	pt.learn(nil, from)                                 // empty
	pt.learn([]byte{1, 2, 3}, from)                     // truncated: no header
	pt.learn(make([]byte, 11), from)                    // one byte short of the src pid
	pt.learn(encodeFrom(t, vproto.MakePid(0, 5)), from) // host-0 source

	wrongVersion := encodeFrom(t, vproto.MakePid(3, 5))
	wrongVersion[1] ^= 0x7F
	pt.learn(wrongVersion, from)

	corrupt := encodeFrom(t, vproto.MakePid(3, 5))
	corrupt[vproto.HeaderSize+4] ^= 0x01 // one message bit: the frame check fails
	pt.learn(corrupt, from)

	if len(pt.snapshot()) != 0 {
		t.Fatalf("garbage datagrams taught %d peers", len(pt.snapshot()))
	}

	// Nor may a frame that fails its check rebind a known peer.
	known := addrOf(t, "127.0.0.1:9005")
	pt.add(3, known)
	pt.learn(corrupt, from)
	if got := pt.get(3); !sameUDPAddr(got, known) {
		t.Fatalf("corrupted frame rebound host 3 to %v, want %v", got, known)
	}
}

func TestLearnAddsPeer(t *testing.T) {
	var pt peerTable
	pt.init()
	from := addrOf(t, "127.0.0.1:9001")
	pt.learn(encodeFrom(t, vproto.MakePid(3, 5)), from.AddrPort())
	if got := pt.get(3); !sameUDPAddr(got, from) {
		t.Fatalf("get(3) = %v, want %v", got, from)
	}
}

// TestLearnOverridesStaleAddPeer is the server-rebind case: a client
// still holds the old AddPeer address, the server comes back on a fresh
// port, and the first packet it sends must re-point the client.
func TestLearnOverridesStaleAddPeer(t *testing.T) {
	var pt peerTable
	pt.init()
	stale := addrOf(t, "127.0.0.1:9002")
	fresh := addrOf(t, "127.0.0.1:9003")
	pt.add(3, stale)
	pt.learn(encodeFrom(t, vproto.MakePid(3, 5)), fresh.AddrPort())
	if got := pt.get(3); !sameUDPAddr(got, fresh) {
		t.Fatalf("get(3) = %v, want rebound address %v", got, fresh)
	}
	if n := len(pt.snapshot()); n != 1 {
		t.Fatalf("snapshot has %d entries, want 1", n)
	}
}

// TestSnapshotCaching pins the Broadcast-path contract: the snapshot is
// rebuilt only when the peer set actually changes; re-learning a known
// peer at its known address must not churn it.
func TestSnapshotCaching(t *testing.T) {
	var pt peerTable
	pt.init()
	a3 := addrOf(t, "127.0.0.1:9004")
	pt.add(3, a3)

	s1 := pt.snapshot()
	pt.learn(encodeFrom(t, vproto.MakePid(3, 5)), addrOf(t, "127.0.0.1:9004").AddrPort())
	s2 := pt.snapshot()
	if &s1[0] != &s2[0] {
		t.Fatal("re-learning a known peer invalidated the snapshot")
	}

	pt.add(4, addrOf(t, "127.0.0.1:9005"))
	s3 := pt.snapshot()
	if len(s3) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(s3))
	}
	if &s3[0] == &s1[0] && cap(s3) == cap(s1) && len(s1) == len(s3) {
		t.Fatal("adding a peer did not rebuild the snapshot")
	}

	// Rebinding an existing peer invalidates too.
	s4 := pt.snapshot()
	pt.add(3, addrOf(t, "127.0.0.1:9006"))
	s5 := pt.snapshot()
	same := len(s4) == len(s5) && &s4[0] == &s5[0]
	if same {
		t.Fatal("rebinding a peer did not rebuild the snapshot")
	}
}

// TestBroadcastSurvivesBadPeer: a peer whose address cannot be sent to
// must not starve the rest of the mesh, and the first error surfaces.
func TestBroadcastSurvivesBadPeer(t *testing.T) {
	ta, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	good, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = good.Close() }()

	// An IPv4-mapped address with port 0 draws an immediate error from
	// the stack; list it first so the good peer exercises the
	// continue-past-error path. (Map iteration order is random, so run
	// the broadcast repeatedly — every run must reach the good peer.)
	ta.AddPeer(2, &net.UDPAddr{IP: net.IPv4zero, Port: 0})
	ta.AddPeer(3, good.Addr())

	recv := make(chan struct{}, 64)
	good.SetHandler(func(f *bufpool.Buf) { recv <- struct{}{} })

	pkt := encodeFrom(t, vproto.MakePid(1, 1))
	for i := 0; i < 8; i++ {
		// An error from the bad peer may surface (stack-dependent), but
		// the sweep must keep going either way.
		_ = ta.Broadcast(pkt)
	}
	select {
	case <-recv:
	case <-time.After(3 * time.Second):
		t.Fatal("broadcast never reached the healthy peer")
	}
}
