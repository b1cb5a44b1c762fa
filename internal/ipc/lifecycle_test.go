package ipc

import (
	"testing"
	"time"

	"vkernel/internal/vproto"
)

// orphanedExchange receives one Send from a client on na that granted
// access, closes na so nothing the mover sends is ever answered, and
// returns the receiving process on nb and the client's pid. The segment
// runs 4 KB past pushMax, where the tests move: past what the Send
// pushes, so a MoveFrom there needs the gone peer as a MoveTo does.
func orphanedExchange(t *testing.T, na, nb *Node, access byte) (*Proc, Pid) {
	t.Helper()
	srv := mustAttach(nb, "server")
	client := mustAttach(na, "client")
	go func() {
		var m Message
		_ = client.Send(&m, srv.Pid(), &Segment{Data: make([]byte, pushMax+4096), Access: access})
	}()
	if _, src, err := srv.Receive(); err != nil || src != client.Pid() {
		t.Fatalf("Receive = %v, %v", src, err)
	}
	_ = na.Close()
	return srv, client.Pid()
}

// TestMovesInFlightAtClose: Node.Close fails every outstanding bulk
// transfer with ErrClosed. The peer's node is gone and the timer is an
// hour, so a MoveTo and a MoveFrom are both still waiting when Close
// runs.
func TestMovesInFlightAtClose(t *testing.T) {
	mesh := NewMemNetwork(1, FaultConfig{})
	defer mesh.Close()
	na := NewNode(1, mesh.Transport(1), NodeConfig{})
	nb := NewNode(2, mesh.Transport(2), NodeConfig{RetransmitTimeout: time.Hour})
	defer nb.Close()
	srvTo, to := orphanedExchange(t, na, nb, SegWrite)
	srvFrom, from := orphanedExchange(t, NewNode(3, mesh.Transport(3), NodeConfig{}), nb, SegRead)

	errs := make(chan error, 2)
	go func() { errs <- srvTo.MoveTo(to, pushMax, make([]byte, 4096)) }()
	go func() { errs <- srvFrom.MoveFrom(from, pushMax, make([]byte, 4096)) }()
	deadline := time.Now().Add(5 * time.Second)
	for counter(nb, "ipc.move_ops") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("moves never started")
		}
		time.Sleep(time.Millisecond)
	}
	_ = nb.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != ErrClosed {
				t.Fatalf("move in flight at Close: err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("move not released by Close")
		}
	}
}

// TestMoveToGoneNodeTimesOut: a bulk transfer whose peer's node is gone
// retransmits Retries times, then fails with ErrTimeout.
func TestMoveToGoneNodeTimesOut(t *testing.T) {
	const retries = 3
	for _, tc := range []struct {
		name   string
		access byte
		move   func(p *Proc, peer Pid) error
	}{
		{"MoveTo", SegWrite, func(p *Proc, peer Pid) error { return p.MoveTo(peer, pushMax, make([]byte, 4096)) }},
		{"MoveFrom", SegRead, func(p *Proc, peer Pid) error { return p.MoveFrom(peer, pushMax, make([]byte, 4096)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewMemNetwork(1, FaultConfig{})
			defer mesh.Close()
			na := NewNode(1, mesh.Transport(1), NodeConfig{})
			nb := NewNode(2, mesh.Transport(2), NodeConfig{RetransmitTimeout: 5 * time.Millisecond, Retries: retries})
			defer nb.Close()
			srv, peer := orphanedExchange(t, na, nb, tc.access)
			if err := tc.move(srv, peer); err != ErrTimeout {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if got := counter(nb, "ipc.retransmits"); got != retries {
				t.Fatalf("retransmits = %d, want %d", got, retries)
			}
		})
	}
}

// TestRemoteExchangeAllocs pins the allocations of one remote exchange on
// a fault-free mesh: a bare Send/Reply allocates nothing — the
// receiver reuses the sender's replied alien descriptor — and neither
// does a MoveTo or MoveFrom inside the exchange, or a ReplyWithSegment
// streamed ahead of its reply: a transfer's operation, result channel
// and timer come from the node's pool. A MoveFrom of a 4 KB segment is
// served from the push behind its Send, as is one of a 64 KB segment
// past its inline prefix (the file server's write), whose push buffer
// is pooled too; PulledMoveFrom moves past the pushed span, so its bytes
// are pulled. The outstanding-operation tables and their completion paths
// must add nothing.
func TestRemoteExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled frames")
	}
	data := make([]byte, 4096) // the replier's side of each transfer
	pushed := make([]byte, pushMax-vproto.MaxData)
	for _, tc := range []struct {
		name   string
		access byte
		size   int // the client's segment, 4 KB if 0
		serve  func(p *Proc, src Pid) error
		want   float64
	}{
		{"SendReply", 0, 0, func(*Proc, Pid) error { return nil }, 0},
		{"MoveTo", SegWrite, 0, func(p *Proc, src Pid) error { return p.MoveTo(src, 0, data) }, 0},
		{"MoveFrom", SegRead, 0, func(p *Proc, src Pid) error { return p.MoveFrom(src, 0, data) }, 0},
		{"PushedMoveFrom64K", SegRead, pushMax, func(p *Proc, src Pid) error {
			return p.MoveFromVec(src, vproto.MaxData, pushed[:1000], pushed[1000:])
		}, 0},
		{"PulledMoveFrom", SegRead, pushMax + 4096, func(p *Proc, src Pid) error { return p.MoveFrom(src, pushMax, data) }, 0},
		{"ReplyWithSegment", SegWrite, 0, func(p *Proc, src Pid) error {
			var reply Message
			return p.ReplyWithSegment(&reply, src, 0, data)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
			srv := mustSpawn(nb, "server", func(p *Proc) {
				for {
					_, src, err := p.Receive()
					if err != nil {
						return
					}
					if err := tc.serve(p, src); err != nil {
						t.Errorf("%s: %v", tc.name, err)
					}
					var reply Message
					_ = p.Reply(&reply, src) // fails once ReplyWithSegment has answered
				}
			})
			client := mustAttach(na, "client")
			defer na.Detach(client)
			var seg *Segment
			if tc.access != 0 {
				seg = &Segment{Data: make([]byte, max(tc.size, 4096)), Access: tc.access}
			}
			exchange := func() {
				var m Message
				if err := client.Send(&m, srv.Pid(), seg); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, exchange); got != tc.want {
				t.Fatalf("%s: %v allocs per exchange, want %v", tc.name, got, tc.want)
			}
		})
	}
}
