package ipc

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// lossy returns a node pair on a mesh that drops, duplicates, corrupts and
// reorders packets.
func lossyPair(t *testing.T, seed int64) (*Node, *Node) {
	t.Helper()
	mesh := NewMemNetwork(seed, FaultConfig{
		DropProb:    0.15,
		DupProb:     0.10,
		CorruptProb: 0.05,
		MaxDelay:    2 * time.Millisecond,
	})
	cfg := NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 50}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
		mesh.Close()
	})
	return na, nb
}

// TestExactlyOnceUnderFaults is the §3.2 reliability property: with the
// reply as the acknowledgement and alien-based duplicate filtering, every
// exchange completes exactly once at the server despite drops, duplicates,
// corruption and reordering.
func TestExactlyOnceUnderFaults(t *testing.T) {
	na, nb := lossyPair(t, 99)
	exchangeExactlyOnce(t, na, nb, 60)
	if counter(na, "ipc.retransmits") == 0 {
		t.Fatal("fault injection produced no retransmissions; test is vacuous")
	}
}

// TestFixedRTOBelowRTT: a retransmission period well under the round trip
// (20 ms against ~100 ms) on a lossy mesh resends every exchange several
// times, yet each still completes exactly once with the right reply. The
// server's duplicate filter absorbs the early copies (§3.2).
func TestFixedRTOBelowRTT(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{Delay: 50 * time.Millisecond, DropProb: 0.12},
		NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 30})
	exchangeExactlyOnce(t, na, nb, 15)
	if counter(na, "ipc.retransmits") == 0 {
		t.Fatal("a 20 ms timeout against a 100 ms round trip never retransmitted")
	}
	if counter(nb, "ipc.dups_filtered") == 0 {
		t.Fatal("the server filtered no duplicate Sends")
	}
}

// exchangeExactlyOnce runs n Send/Reply exchanges from na to a server on
// nb and checks that each got its own reply and reached the server
// exactly once.
func exchangeExactlyOnce(t *testing.T, na, nb *Node, n uint32) {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[uint32]int)
	srv := mustSpawn(nb, "server", func(p *Proc) {
		for {
			msg, src, err := p.Receive()
			if err != nil {
				return
			}
			mu.Lock()
			seen[msg.Word(1)]++
			mu.Unlock()
			var reply Message
			reply.SetWord(1, msg.Word(1)+1000)
			if err := p.Reply(&reply, src); err != nil {
				return
			}
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	for i := uint32(1); i <= n; i++ {
		var m Message
		m.SetWord(1, i)
		if err := client.Send(&m, srv.Pid(), nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if m.Word(1) != i+1000 {
			t.Fatalf("reply %d = %d", i, m.Word(1))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := uint32(1); i <= n; i++ {
		if seen[i] != 1 {
			t.Fatalf("message %d delivered %d times", i, seen[i])
		}
	}
}

// TestMoveToUnderFaults checks bulk-transfer integrity with resume-from-
// last-received retransmission.
func TestMoveToUnderFaults(t *testing.T) {
	na, nb := lossyPair(t, 123)
	const size = 30_000
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 233)
	}
	srv := mustSpawn(nb, "server", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		if err := p.MoveTo(src, 0, data); err != nil {
			t.Errorf("MoveTo: %v", err)
		}
		var reply Message
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	buf := make([]byte, size)
	var m Message
	if err := client.Send(&m, srv.Pid(), &Segment{Data: buf, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("MoveTo under faults corrupted data")
	}
}

// TestMoveFromUnderFaults checks the pull direction.
func TestMoveFromUnderFaults(t *testing.T) {
	na, nb := lossyPair(t, 321)
	const size = 25_000
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 51)
	}
	got := make(chan []byte, 1)
	srv := mustSpawn(nb, "server", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		buf := make([]byte, size)
		if err := p.MoveFrom(src, 0, buf); err != nil {
			t.Errorf("MoveFrom: %v", err)
		}
		got <- buf
		var reply Message
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, srv.Pid(), &Segment{Data: data, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	if g := <-got; !bytes.Equal(g, data) {
		t.Fatal("MoveFrom under faults corrupted data")
	}
}

// TestReplyCacheAnswersDuplicates: a retransmitted request after the reply
// was sent must be answered from the alien's cached reply, not re-executed.
func TestReplyCacheAnswersDuplicates(t *testing.T) {
	mesh := NewMemNetwork(5, FaultConfig{})
	cfg := NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 10}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	defer func() { _ = na.Close(); _ = nb.Close(); mesh.Close() }()

	execs := 0
	var mu sync.Mutex
	srv := mustSpawn(nb, "server", func(p *Proc) {
		for {
			_, src, err := p.Receive()
			if err != nil {
				return
			}
			mu.Lock()
			execs++
			mu.Unlock()
			var reply Message
			_ = p.Reply(&reply, src)
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, srv.Pid(), nil); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a duplicate of the Send the client just completed
	// (same seq), as if the reply had been lost.
	dup := &vproto.Packet{
		Kind: vproto.KindSend,
		Seq:  1, // first seq issued by node a
		Src:  client.Pid(),
		Dst:  srv.Pid(),
	}
	buf, err := dup.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := bufpool.Get(len(buf))
	copy(f.Data, buf)
	nb.handlePacket(f)
	f.Release()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Fatalf("request executed %d times; duplicate not filtered", execs)
	}
	if counter(nb, "ipc.dups_filtered") == 0 {
		t.Fatal("duplicate not counted")
	}
}

// TestReplyPendingSuppressesFailure: a slow server must hold the client in
// the exchange via reply-pending packets well beyond Retries x timeout.
func TestReplyPendingSuppressesFailure(t *testing.T) {
	mesh := NewMemNetwork(5, FaultConfig{})
	cfg := NodeConfig{RetransmitTimeout: 5 * time.Millisecond, Retries: 3}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	defer func() { _ = na.Close(); _ = nb.Close(); mesh.Close() }()

	srv := mustSpawn(nb, "slow", func(p *Proc) {
		msg, src, err := p.Receive()
		if err != nil {
			return
		}
		_ = msg
		time.Sleep(100 * time.Millisecond) // >> Retries x timeout
		var reply Message
		reply.SetWord(1, 1)
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, srv.Pid(), nil); err != nil {
		t.Fatalf("slow exchange failed: %v", err)
	}
	if m.Word(1) != 1 {
		t.Fatal("wrong reply")
	}
	if counter(na, "ipc.reply_pendings_seen") == 0 {
		t.Fatal("no reply-pending packets observed; test is vacuous")
	}
}

// TestAlienExhaustionRecovery: more concurrent remote clients than alien
// descriptors still complete, via reply-pending + retransmission.
func TestAlienExhaustionRecovery(t *testing.T) {
	mesh := NewMemNetwork(5, FaultConfig{})
	cfg := NodeConfig{RetransmitTimeout: 5 * time.Millisecond, Retries: 100, AlienDescriptors: 2}
	nb := NewNode(1, mesh.Transport(1), cfg)
	defer func() { _ = nb.Close(); mesh.Close() }()

	server := echoOn(nb, 0)
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	nodes := make([]*Node, clients)
	for i := 0; i < clients; i++ {
		nodes[i] = NewNode(LogicalHost(10+i), mesh.Transport(LogicalHost(10+i)), cfg)
		defer nodes[i].Close()
		wg.Add(1)
		mustSpawn(nodes[i], "client", func(p *Proc) {
			defer wg.Done()
			var m Message
			m.SetWord(1, 5)
			if err := p.Send(&m, server, nil); err != nil {
				errs <- err
			}
		})
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
