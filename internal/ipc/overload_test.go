package ipc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// TestRemoteOverloadNack: Sends past a process's FCFS queue bound must be
// shed with an overload Nack that the sender surfaces as ErrOverloaded
// (retryable), while the queued exchanges stay intact — bounded memory
// under overload instead of unbounded queue growth.
func TestRemoteOverloadNack(t *testing.T) {
	mesh := NewMemNetwork(3, FaultConfig{})
	server := NewNode(1, mesh.Transport(1), NodeConfig{ReceiveQueueDepth: 2})
	client := NewNode(2, mesh.Transport(2), NodeConfig{})

	// A receiver that never receives: every Send parks in its FCFS queue.
	rcv := mustAttach(server, "swamped")

	const senders = 5
	errCh := make(chan error, senders)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := mustAttach(client, "sender")
			defer client.Detach(p)
			var m Message
			errCh <- p.Send(&m, rcv.Pid(), nil)
		}()
	}

	// Exactly queue-depth Sends fit; the rest must fail fast with
	// ErrOverloaded (not hang, not ErrNoProcess).
	overloaded := 0
	for i := 0; i < senders-2; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("shed send returned %v, want ErrOverloaded", err)
			}
			overloaded++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d sends were shed; overload Nack not delivered", overloaded)
		}
	}
	// The two queued exchanges are still live (held by reply-pending);
	// closing the client fails them with ErrClosed, not ErrOverloaded.
	_ = client.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("queued send returned %v, want ErrClosed", err)
		}
	}
	_ = server.Close()
	mesh.Close()
}

// TestLocalOverload: the bound applies to same-node Sends too.
func TestLocalOverload(t *testing.T) {
	mesh := NewMemNetwork(3, FaultConfig{})
	n := NewNode(1, mesh.Transport(1), NodeConfig{})
	defer func() { _ = n.Close(); mesh.Close() }()

	rcv := mustAttach(n, "swamped")
	rcv.SetQueueLimit(1)

	first := make(chan error, 1)
	go func() {
		p := mustAttach(n, "sender1")
		defer n.Detach(p)
		var m Message
		first <- p.Send(&m, rcv.Pid(), nil)
	}()
	// Wait until the first Send is queued.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rcv.mu.Lock()
		queued := len(rcv.queue)
		rcv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first send never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p := mustAttach(n, "sender2")
	defer n.Detach(p)
	var m Message
	if err := p.Send(&m, rcv.Pid(), nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second send returned %v, want ErrOverloaded", err)
	}
	n.Detach(rcv) // fail the queued sender
	if err := <-first; !errors.Is(err, ErrNoProcess) {
		t.Fatalf("queued send returned %v, want ErrNoProcess", err)
	}
}

// TestShedDuplicateNotDelivered: ErrOverloaded promises the exchange was
// never executed, so a transport duplicate of a shed Send arriving after
// the queue drains must be shed again (same-seq filtering via the kept
// descriptor), not delivered.
func TestShedDuplicateNotDelivered(t *testing.T) {
	mesh := NewMemNetwork(3, FaultConfig{})
	server := NewNode(1, mesh.Transport(1), NodeConfig{ReceiveQueueDepth: 1})
	client := NewNode(2, mesh.Transport(2), NodeConfig{})
	defer func() { _ = client.Close(); _ = server.Close(); mesh.Close() }()

	rcv := mustAttach(server, "slow")
	blocker := mustAttach(client, "blocker")
	defer client.Detach(blocker)
	blocked := make(chan error, 1)
	go func() {
		var m Message
		blocked <- blocker.Send(&m, rcv.Pid(), nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rcv.mu.Lock()
		queued := len(rcv.queue)
		rcv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never queued")
		}
		time.Sleep(time.Millisecond)
	}

	shedder := mustAttach(client, "shedder")
	defer client.Detach(shedder)
	var m Message
	m.SetWord(2, 0xBEEF)
	if err := shedder.Send(&m, rcv.Pid(), nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("send returned %v, want ErrOverloaded", err)
	}

	// Drain the queue, then replay a duplicate of the shed Send (the
	// shedder's was the client node's second seq).
	if _, src, err := rcv.Receive(); err != nil {
		t.Fatal(err)
	} else {
		var reply Message
		if err := rcv.Reply(&reply, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	dup := &vproto.Packet{Kind: vproto.KindSend, Seq: 2, Src: shedder.Pid(), Dst: rcv.Pid(), Msg: m}
	buf, err := dup.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := bufpool.Get(len(buf))
	copy(f.Data, buf)
	server.handlePacket(f)
	f.Release()

	got := make(chan Pid, 1)
	go func() {
		if _, src, err := rcv.Receive(); err == nil {
			got <- src
		}
	}()
	select {
	case src := <-got:
		t.Fatalf("duplicate of a shed Send was delivered (from %v)", src)
	case <-time.After(150 * time.Millisecond):
	}
	if nacks := counter(server, "ipc.nacks_sent"); nacks < 2 {
		t.Fatalf("NacksSent = %d, want ≥2 (original shed + duplicate)", nacks)
	}
	server.Detach(rcv)
}

// TestOverloadedSendIsRetryable: after the receiver drains its queue, a
// retry of a shed Send succeeds — the Nack sheds the message without
// poisoning the sender/receiver pair.
func TestOverloadedSendIsRetryable(t *testing.T) {
	mesh := NewMemNetwork(3, FaultConfig{})
	server := NewNode(1, mesh.Transport(1), NodeConfig{ReceiveQueueDepth: 1})
	client := NewNode(2, mesh.Transport(2), NodeConfig{})
	defer func() { _ = client.Close(); _ = server.Close(); mesh.Close() }()

	rcv := mustAttach(server, "slow")
	blocker := mustAttach(client, "blocker")
	defer client.Detach(blocker)

	blocked := make(chan error, 1)
	go func() {
		var m Message
		blocked <- blocker.Send(&m, rcv.Pid(), nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rcv.mu.Lock()
		queued := len(rcv.queue)
		rcv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never queued")
		}
		time.Sleep(time.Millisecond)
	}

	p := mustAttach(client, "retrier")
	defer client.Detach(p)
	var m Message
	if err := p.Send(&m, rcv.Pid(), nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded send returned %v", err)
	}
	// Drain: receive and reply to the blocker, then retry.
	if _, src, err := rcv.Receive(); err != nil {
		t.Fatal(err)
	} else {
		var reply Message
		if err := rcv.Reply(&reply, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	retryDone := make(chan error, 1)
	go func() {
		var rm Message
		retryDone <- p.Send(&rm, rcv.Pid(), nil)
	}()
	if _, src, err := rcv.Receive(); err != nil {
		t.Fatal(err)
	} else {
		var reply Message
		if err := rcv.Reply(&reply, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-retryDone; err != nil {
		t.Fatalf("retry after overload failed: %v", err)
	}
	server.Detach(rcv)
}
