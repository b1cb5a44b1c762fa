package ipc

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"vkernel/internal/vproto"
)

// mustSpawn / mustAttach panic on pid exhaustion, which test-sized
// workloads never hit.
func mustSpawn(n *Node, name string, body func(p *Proc)) *Proc {
	p, err := n.Spawn(name, body)
	if err != nil {
		panic(err)
	}
	return p
}

func mustAttach(n *Node, name string) *Proc {
	p, err := n.Attach(name)
	if err != nil {
		panic(err)
	}
	return p
}

// counter reads one of a node's registry counters, e.g. "ipc.retransmits".
func counter(n *Node, name string) int64 { return n.Metrics().Counter(name).Load() }

// pairOnMesh builds two nodes connected by an in-memory mesh.
func pairOnMesh(t *testing.T, faults FaultConfig, cfg NodeConfig) (*Node, *Node, *MemNetwork) {
	t.Helper()
	mesh := NewMemNetwork(1, faults)
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
		mesh.Close()
	})
	return na, nb, mesh
}

// echoOn spawns a Receive/Reply echo server that doubles word 1.
func echoOn(n *Node, iterations int) Pid {
	ready := make(chan Pid, 1)
	mustSpawn(n, "echo", func(p *Proc) {
		ready <- p.Pid()
		for i := 0; iterations <= 0 || i < iterations; i++ {
			msg, src, err := p.Receive()
			if err != nil {
				return
			}
			var reply Message
			reply.SetWord(1, msg.Word(1)*2)
			if err := p.Reply(&reply, src); err != nil {
				return
			}
		}
	})
	return <-ready
}

func TestLocalExchange(t *testing.T) {
	na, _, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	server := echoOn(na, 1)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	m.SetWord(1, 21)
	if err := client.Send(&m, server, nil); err != nil {
		t.Fatal(err)
	}
	if m.Word(1) != 42 {
		t.Fatalf("reply word = %d", m.Word(1))
	}
}

func TestRemoteExchange(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	server := echoOn(nb, 1)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	m.SetWord(1, 7)
	if err := client.Send(&m, server, nil); err != nil {
		t.Fatal(err)
	}
	if m.Word(1) != 14 {
		t.Fatalf("reply word = %d", m.Word(1))
	}
	if got := counter(na, "ipc.remote_sends"); got != 1 {
		t.Fatalf("ipc.remote_sends = %d, want 1", got)
	}
}

func TestSendToMissingProcessNacks(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	err := client.Send(&m, vproto.MakePid(nb.Host(), 999), nil)
	if err != ErrNoProcess {
		t.Fatalf("err = %v", err)
	}
}

func TestSendToDeadHostTimesOut(t *testing.T) {
	na, _, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		Retries:           3,
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	start := time.Now()
	err := client.Send(&m, vproto.MakePid(55, 1), nil)
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("gave up after %v, want >= 3 retries x 5ms", elapsed)
	}
}

func TestFCFSOrderLocal(t *testing.T) {
	na, _, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	var order []uint32
	var mu sync.Mutex
	done := make(chan struct{})
	srv := mustAttach(na, "server")
	defer na.Detach(srv)

	// Wall-clock staggering: gaps must be wide enough that OS scheduling
	// jitter cannot reorder the arrivals (the simulator's deterministic
	// FCFS test lives in internal/core).
	const n = 5
	var wg sync.WaitGroup
	for i := uint32(1); i <= n; i++ {
		i := i
		wg.Add(1)
		mustSpawn(na, "client", func(p *Proc) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 60 * time.Millisecond)
			var m Message
			m.SetWord(1, i)
			_ = p.Send(&m, srv.Pid(), nil)
		})
	}
	go func() {
		for i := 0; i < n; i++ {
			msg, src, err := srv.Receive()
			if err != nil {
				return
			}
			mu.Lock()
			order = append(order, msg.Word(1))
			mu.Unlock()
			var reply Message
			_ = srv.Reply(&reply, src)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	for i := 0; i < n; i++ {
		if order[i] != uint32(i+1) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPageReadViaReplyWithSegment(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i * 3)
	}
	srv := mustSpawn(nb, "fs", func(p *Proc) {
		msg, src, err := p.Receive()
		if err != nil {
			return
		}
		if _, size, access, ok := msg.Segment(); !ok || access&SegWrite == 0 || size != 512 {
			t.Errorf("bad grant")
		}
		var reply Message
		if err := p.ReplyWithSegment(&reply, src, 0, page); err != nil {
			t.Error(err)
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	buf := make([]byte, 512)
	var m Message
	if err := client.Send(&m, srv.Pid(), &Segment{Data: buf, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("page corrupted")
	}
}

func TestPageWriteViaInlineSegment(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(200 - i)
	}
	got := make(chan []byte, 1)
	srv := mustSpawn(nb, "fs", func(p *Proc) {
		buf := make([]byte, 1024)
		_, src, n, err := p.ReceiveWithSegment(buf)
		if err != nil {
			return
		}
		got <- append([]byte(nil), buf[:n]...)
		var reply Message
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, srv.Pid(), &Segment{Data: page, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	if g := <-got; !bytes.Equal(g, page) {
		t.Fatal("inline write corrupted")
	}
}

func TestMoveToRemote(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	const size = 10_000
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 119)
	}
	srv := mustSpawn(nb, "server", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		if err := p.MoveTo(src, 0, data); err != nil {
			t.Error(err)
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
		t.Fatal("MoveTo corrupted data")
	}
}

func TestMoveFromRemote(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	const size = 7_000
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 101)
	}
	got := make(chan []byte, 1)
	srv := mustSpawn(nb, "server", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		buf := make([]byte, size)
		if err := p.MoveFrom(src, 0, buf); err != nil {
			t.Error(err)
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
		t.Fatal("MoveFrom corrupted data")
	}
}

func TestReplyWithoutReceiveFails(t *testing.T) {
	na, _, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	p := mustAttach(na, "p")
	defer na.Detach(p)
	var m Message
	if err := p.Reply(&m, vproto.MakePid(1, 99)); err != ErrNotAwaitingReply {
		t.Fatalf("err = %v", err)
	}
}

func TestNameService(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{GetPidTimeout: 20 * time.Millisecond})
	server := echoOn(nb, 1)
	reg := mustAttach(nb, "registrar")
	reg.SetPid(7, server, ScopeBoth)
	nb.Detach(reg)

	client := mustAttach(na, "client")
	defer na.Detach(client)
	got := client.GetPid(7, ScopeBoth)
	if got != server {
		t.Fatalf("GetPid = %v, want %v", got, server)
	}
	if unknown := client.GetPid(99, ScopeBoth); unknown != vproto.Nil {
		t.Fatalf("unknown id resolved to %v", unknown)
	}
	// Local-only scope must not broadcast.
	if localOnly := client.GetPid(7, ScopeLocal); localOnly != vproto.Nil {
		t.Fatalf("local lookup found remote registration: %v", localOnly)
	}
}

func TestManyConcurrentClients(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	server := echoOn(nb, 200)
	const clients = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		mustSpawn(na, "client", func(p *Proc) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var m Message
				m.SetWord(1, uint32(c*100+i))
				if err := p.Send(&m, server, nil); err != nil {
					errs <- err
					return
				}
				if m.Word(1) != uint32(c*100+i)*2 {
					errs <- ErrBadAddress
					return
				}
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

// TestReceiverDeathAfterReceiveNacks: a process that receives a remote
// message and dies without replying must not hold the sender in
// reply-pending forever — its alien descriptor is dropped, so the next
// retransmission is Nacked and the Send fails with ErrNoProcess.
func TestReceiverDeathAfterReceiveNacks(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		Retries:           50,
	})
	started := make(chan Pid, 1)
	mustSpawn(nb, "doomed", func(p *Proc) {
		started <- p.Pid()
		_, _, _ = p.Receive()
		// Exit without replying.
	})
	server := <-started
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, server, nil); err != ErrNoProcess {
		t.Fatalf("err = %v, want ErrNoProcess", err)
	}
}

func TestNodeCloseReleasesBlockedOps(t *testing.T) {
	mesh := NewMemNetwork(1, FaultConfig{})
	na := NewNode(1, mesh.Transport(1), NodeConfig{RetransmitTimeout: time.Hour})
	client := mustAttach(na, "client")
	done := make(chan error, 1)
	go func() {
		var m Message
		done <- client.Send(&m, vproto.MakePid(9, 1), nil)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := na.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send not released by Close")
	}
	mesh.Close()
}
