package ipc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// pushTap wraps a node's transport: it counts the MoveFromReq packets
// the node sends, and offers every pushed packet it sends to hold, which
// keeps the packet off the wire by returning true — a packet the network
// lost, or will deliver late. It has no TrainSender, so its node hands it
// a train packet by packet.
type pushTap struct {
	Transport
	mu   sync.Mutex
	reqs int
	hold func(p *vproto.Packet, frame []byte) bool // under mu
}

func (pt *pushTap) Send(to LogicalHost, pkt []byte) error {
	var p vproto.Packet
	if vproto.DecodeInto(&p, pkt) == nil {
		pt.mu.Lock()
		if p.Kind == vproto.KindMoveFromReq {
			pt.reqs++
		}
		held := p.Kind == vproto.KindMoveFromData && p.Flags&vproto.FlagStreamed != 0 && pt.hold != nil && pt.hold(&p, pkt)
		pt.mu.Unlock()
		if held {
			return nil
		}
	}
	return pt.Transport.Send(to, pkt)
}

func (pt *pushTap) requests() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.reqs
}

// pushPair builds client node 1 and server node 2 on a transport pair of
// kind, the server's behind a pushTap, and the client's too when hold is
// set (without one, the client sends its pushes as trains).
func pushPair(t *testing.T, kind string, cfg NodeConfig, hold func(*vproto.Packet, []byte) bool) (client, server *Node, ctap, stap *pushTap) {
	t.Helper()
	ta, tb := transportPair(t, kind)
	stap = &pushTap{Transport: tb}
	if hold != nil {
		ctap = &pushTap{Transport: ta, hold: hold}
		ta = ctap
	}
	client, server = NewNode(1, ta, cfg), NewNode(2, stap, cfg)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server, ctap, stap
}

// pushServer spawns a process that serves every exchange with serve,
// reports its result and replies.
func pushServer(n *Node, serve func(p *Proc, src Pid, m Message) error) (Pid, <-chan error) {
	errs := make(chan error, 1)
	srv := mustSpawn(n, "pushed", func(p *Proc) {
		for {
			m, src, err := p.Receive()
			if err != nil {
				return
			}
			errs <- serve(p, src, m)
			var reply Message
			_ = p.Reply(&reply, src)
		}
	})
	return srv.Pid(), errs
}

// pushLanded is how many bytes of src's pushed segment n holds, -1 when
// it holds no push for src.
func pushLanded(n *Node, src Pid) int {
	n.aliens.mu.Lock()
	defer n.aliens.mu.Unlock()
	if a, ok := n.aliens.m[src]; ok && a.push != nil {
		return int(a.pushLen)
	}
	return -1
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPushServesMoveFrom: a Send granting read access to 64 KB pushes the
// segment right behind itself, and the receiver's MoveFromVec — from
// offset 0, and from MaxData past the inline prefix as the file server
// pulls a write — is served from what landed, byte for byte across a
// scatter list, without one MoveFromReq on the wire.
func TestPushServesMoveFrom(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			client, server, _, stap := pushPair(t, kind, NodeConfig{RetransmitTimeout: time.Second}, nil)
			data := trainData()
			var got [][]byte
			srv, errs := pushServer(server, func(p *Proc, src Pid, m Message) error {
				rest := len(data) - int(m.Word(1))
				got = [][]byte{make([]byte, 1000), make([]byte, 30000), make([]byte, rest-31000)}
				return p.MoveFromVec(src, m.Word(1), got...)
			})
			p := mustAttach(client, "client")
			defer client.Detach(p)
			for _, off := range []uint32{0, vproto.MaxData} {
				var m Message
				m.SetWord(1, off)
				if err := p.Send(&m, srv, &Segment{Data: data, Access: SegRead}); err != nil {
					t.Fatal(err)
				}
				if err := <-errs; err != nil {
					t.Fatalf("MoveFromVec from %d: %v", off, err)
				}
				if !bytes.Equal(bytes.Join(got, nil), data[off:]) {
					t.Errorf("MoveFromVec from %d pulled wrong bytes", off)
				}
			}
			if n := stap.requests(); n != 0 {
				t.Errorf("%d MoveFromReq packets on the wire, want 0", n)
			}
			if hits, drops := counter(server, "ipc.push_hits"), counter(server, "ipc.push_drops"); hits != 2 || drops != 0 {
				t.Errorf("ipc.push_hits=%d ipc.push_drops=%d, want 2 and 0", hits, drops)
			}
			if resumes, ooo, retrans := moveCounters(client, server); resumes != 0 || ooo != 0 || retrans != 0 {
				t.Errorf("move_resumes=%d move_ooo_drops=%d retransmits=%d, want all 0", resumes, ooo, retrans)
			}
		})
	}
}

// TestPushedSendLeadsItsTrain: over UDP, a Send as long as a push
// packet heads its push's first train frame, so a 64 KB pushed write
// costs the client two kernel crossings, one per train frame, and the
// server two reads: the Send handled on the read loop, then each frame's
// pushed packets handed to a worker whole. The MoveFromVec taking the
// Send is served from the push, byte for byte. At a 512-byte ChunkSize
// the Send is longer than a push packet and goes alone.
func TestPushedSendLeadsItsTrain(t *testing.T) {
	for _, tc := range []struct {
		chunk int
		sends int64
	}{{vproto.MaxData, 2}, {512, 3}} {
		t.Run(fmt.Sprintf("chunk=%d", tc.chunk), func(t *testing.T) {
			client, server := nodePair(t, "udp", NodeConfig{ChunkSize: tc.chunk, RetransmitTimeout: time.Second})
			ct, st := client.transport.(*UDPTransport), server.transport.(*UDPTransport)
			data := trainData()
			got := [][]byte{make([]byte, 1000), make([]byte, 30000), make([]byte, len(data)-31000)}
			srv, errs := pushServer(server, func(p *Proc, src Pid, _ Message) error {
				return p.MoveFromVec(src, 0, got...)
			})
			p := mustAttach(client, "client")
			defer client.Detach(p)
			sends, recvs, inline, trains := ct.sends.Load(), st.recvs.Load(), st.rxInline.Load(), st.rxTrains.Load()
			var m Message
			if err := p.Send(&m, srv, &Segment{Data: data, Access: SegRead}); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatalf("MoveFromVec: %v", err)
			}
			if !bytes.Equal(bytes.Join(got, nil), data) {
				t.Fatal("MoveFromVec took wrong bytes")
			}
			if hits, drops := counter(server, "ipc.push_hits"), counter(server, "ipc.push_drops"); hits != 1 || drops != 0 {
				t.Errorf("ipc.push_hits=%d ipc.push_drops=%d, want 1 and 0", hits, drops)
			}
			if resumes, _, retrans := moveCounters(client, server); resumes != 0 || retrans != 0 {
				t.Errorf("move_resumes=%d retransmits=%d, want 0 and 0", resumes, retrans)
			}
			// The read loop counts a handed-on train after the worker may
			// have served it: wait for the second frame's count.
			for deadline := time.Now().Add(time.Second); st.rxTrains.Load()-trains < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if ct.gsoRefusals.Load() > 0 || st.rxTrains.Load() == trains {
				t.Logf("net.rx_trains +%d: no segmentation or receive offload here", st.rxTrains.Load()-trains)
				return
			}
			if got := ct.sends.Load() - sends; got != tc.sends {
				t.Errorf("client net.sends +%d, want +%d", got, tc.sends)
			}
			if tc.chunk != vproto.MaxData {
				return
			}
			if r, i, tr := st.recvs.Load()-recvs, st.rxInline.Load()-inline, st.rxTrains.Load()-trains; r != 2 || i != 1 || tr != 2 {
				t.Errorf("server net.recvs +%d, net.rx_inline +%d, net.rx_trains +%d; want +2, +1 (the Send), +2", r, i, tr)
			}
		})
	}
}

// TestPushLossPulledFromGap: one pushed packet is lost — one in the
// middle of the push, or its last. The MoveFrom still lands every byte,
// at the cost of one MoveFromReq from the gap on and at most one
// RetransmitTimeout: a middle loss is resumed as soon as the push's last
// packet shows the gap (ipc.move_resumes), a lost last packet when the
// pull's timer fires (ipc.retransmits).
func TestPushLossPulledFromGap(t *testing.T) {
	const rto = 200 * time.Millisecond
	data := trainData()
	for _, kind := range transportKinds {
		for _, tc := range []struct {
			name string
			lost uint32
		}{{"middle", 20 * vproto.MaxData}, {"last", pushMax - vproto.MaxData}} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				dropped := 0
				hold := func(p *vproto.Packet, _ []byte) bool {
					if p.Offset != tc.lost || dropped > 0 {
						return false
					}
					dropped++
					return true
				}
				client, server, ctap, stap := pushPair(t, kind, NodeConfig{RetransmitTimeout: rto}, hold)
				buf := make([]byte, len(data)-vproto.MaxData)
				var took time.Duration
				srv, errs := pushServer(server, func(p *Proc, src Pid, _ Message) error {
					start := time.Now()
					err := p.MoveFrom(src, vproto.MaxData, buf)
					took = time.Since(start)
					return err
				})
				p := mustAttach(client, "client")
				defer client.Detach(p)
				var m Message
				if err := p.Send(&m, srv, &Segment{Data: data, Access: SegRead}); err != nil {
					t.Fatal(err)
				}
				if err := <-errs; err != nil {
					t.Fatalf("MoveFrom: %v", err)
				}
				ctap.mu.Lock()
				lost := dropped
				ctap.mu.Unlock()
				if lost != 1 {
					t.Fatalf("%d pushed packets dropped, want 1", lost)
				}
				if !bytes.Equal(buf, data[vproto.MaxData:]) {
					t.Error("MoveFrom pulled wrong bytes")
				}
				if n := stap.requests(); n != 1 {
					t.Errorf("%d MoveFromReq packets, want 1, from the gap", n)
				}
				resumes, _, retrans := moveCounters(server)
				want, limit := [2]int64{1, 0}, rto
				if tc.name == "last" {
					want, limit = [2]int64{0, 1}, 2*rto
				}
				if [2]int64{resumes, retrans} != want {
					t.Errorf("move_resumes=%d retransmits=%d, want %d and %d", resumes, retrans, want[0], want[1])
				}
				if took >= limit {
					t.Errorf("MoveFrom took %v, want under %v", took, limit)
				}
				if hits := counter(server, "ipc.push_hits"); hits != 0 {
					t.Errorf("ipc.push_hits = %d for a MoveFrom that pulled", hits)
				}
			})
		}
	}
}

// TestPushForBusyReceiver: a Send waiting in its receiver's queue keeps
// its push, landed whole in its descriptor, and the MoveFrom that takes
// the Send later asks the sender for nothing. A Send the full queue sheds
// holds no push: every one of its pushed packets is dropped and the
// sender gets ErrOverloaded.
func TestPushForBusyReceiver(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			client, server, _, stap := pushPair(t, kind, NodeConfig{RetransmitTimeout: time.Second}, nil)
			srv := mustAttach(server, "busy")
			defer server.Detach(srv)
			srv.SetQueueLimit(1)
			data := trainData()
			queued, shed := mustAttach(client, "queued"), mustAttach(client, "shed")
			defer client.Detach(queued)
			defer client.Detach(shed)
			done := make(chan error, 1)
			go func() {
				var m Message
				done <- queued.Send(&m, srv.Pid(), &Segment{Data: data, Access: SegRead})
			}()
			waitFor(t, "the push of the queued Send", func() bool { return pushLanded(server, queued.Pid()) == pushMax })
			var m Message
			if err := shed.Send(&m, srv.Pid(), &Segment{Data: data, Access: SegRead}); err != ErrOverloaded {
				t.Fatalf("Send to a full queue: %v, want ErrOverloaded", err)
			}
			const packets = pushMax / vproto.MaxData
			waitFor(t, "the shed Send's pushed packets", func() bool { return counter(server, "ipc.push_drops") == packets })
			if n := pushLanded(server, shed.Pid()); n != -1 {
				t.Errorf("the shed Send holds %d pushed bytes", n)
			}

			_, src, err := srv.Receive()
			if err != nil || src != queued.Pid() {
				t.Fatalf("Receive = %v, %v", src, err)
			}
			buf := make([]byte, len(data)-vproto.MaxData)
			if err := srv.MoveFrom(src, vproto.MaxData, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[vproto.MaxData:]) {
				t.Error("MoveFrom pulled wrong bytes")
			}
			var reply Message
			if err := srv.Reply(&reply, src); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := stap.requests(); n != 0 {
				t.Errorf("%d MoveFromReq packets, want 0", n)
			}
			if hits := counter(server, "ipc.push_hits"); hits != 1 {
				t.Errorf("ipc.push_hits = %d, want 1", hits)
			}
			if n := pushLanded(server, queued.Pid()); n != -1 {
				t.Errorf("the replied Send still holds %d pushed bytes", n)
			}
		})
	}
}

// TestLatePushDropped: a server that replies without moving anything
// leaves its Send's push unused. The network delivers that push after
// the Reply, and again after the sender's next Send: it finds no live
// descriptor of its seq either time and is dropped, the next exchange's
// MoveFrom gets that exchange's own bytes, and once both nodes close
// every pooled buffer is back.
func TestLatePushDropped(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			before := bufpool.Outstanding()
			var late [][]byte // the first exchange's pushed packets, held back
			capture := true
			hold := func(_ *vproto.Packet, frame []byte) bool {
				if capture {
					late = append(late, append([]byte(nil), frame...))
				}
				return capture
			}
			client, server, ctap, _ := pushPair(t, kind, NodeConfig{RetransmitTimeout: time.Second}, hold)
			deliverLate := func() {
				ctap.mu.Lock()
				capture = false
				frames := late
				ctap.mu.Unlock()
				for _, f := range frames {
					_ = ctap.Transport.Send(2, f)
				}
			}
			const packets = pushMax / vproto.MaxData
			first, second := patterned(pushMax), bytes.Repeat([]byte{0xC3}, pushMax)
			buf := make([]byte, pushMax)
			srv, errs := pushServer(server, func(p *Proc, src Pid, m Message) error {
				if m.Word(1) == 0 {
					return nil // reply without moving anything
				}
				deliverLate() // after this exchange's Send, and maybe amid its push
				for deadline := time.Now().Add(5 * time.Second); counter(server, "ipc.push_drops") < 2*packets && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				return p.MoveFrom(src, 0, buf)
			})
			p := mustAttach(client, "client")
			defer client.Detach(p)
			var m Message
			if err := p.Send(&m, srv, &Segment{Data: first, Access: SegRead}); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if len(late) != packets {
				t.Fatalf("held back %d pushed packets, want %d", len(late), packets)
			}
			deliverLate()
			waitFor(t, "the late push dropped", func() bool { return counter(server, "ipc.push_drops") == packets })

			m = Message{}
			m.SetWord(1, 1)
			if err := p.Send(&m, srv, &Segment{Data: second, Access: SegRead}); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, second) {
				t.Error("the next exchange's MoveFrom got bytes of the earlier push")
			}
			if drops := counter(server, "ipc.push_drops"); drops != 2*packets {
				t.Errorf("ipc.push_drops = %d, want the late push dropped twice, %d", drops, 2*packets)
			}
			client.Detach(p)
			_ = client.Close()
			_ = server.Close()
			waitFor(t, "every pooled buffer back", func() bool { return bufpool.Outstanding() == before })
		})
	}
}

// TestNoPushForWritableSegment: a segment that grants write access too
// is not pushed — the receiver may write it while a push would read it.
// A receiver that moves new bytes into such a segment and reads them
// back pulls the new bytes.
func TestNoPushForWritableSegment(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			client, server, _, stap := pushPair(t, kind, NodeConfig{RetransmitTimeout: time.Second}, nil)
			fresh := bytes.Repeat([]byte{0x5A}, pushMax)
			buf := make([]byte, pushMax)
			srv, errs := pushServer(server, func(p *Proc, src Pid, _ Message) error {
				if err := p.MoveTo(src, 0, fresh); err != nil {
					return err
				}
				return p.MoveFrom(src, 0, buf)
			})
			p := mustAttach(client, "client")
			defer client.Detach(p)
			var m Message
			if err := p.Send(&m, srv, &Segment{Data: patterned(pushMax), Access: SegRead | SegWrite}); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, fresh) {
				t.Error("MoveFrom after a MoveTo did not read the moved bytes")
			}
			if n := stap.requests(); n != 1 {
				t.Errorf("%d MoveFromReq packets, want 1", n)
			}
			if hits, drops := counter(server, "ipc.push_hits"), counter(server, "ipc.push_drops"); hits != 0 || drops != 0 {
				t.Errorf("ipc.push_hits=%d ipc.push_drops=%d for a segment never pushed", hits, drops)
			}
		})
	}
}
