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

// replyServer spawns a process that answers an exchange with one
// ReplyWithSegment of data at offset 0 and reports the call's result and
// how long it blocked; each test makes one exchange with it.
func replyServer(t *testing.T, n *Node, data []byte) (Pid, <-chan error, <-chan time.Duration) {
	errs, took := make(chan error, 1), make(chan time.Duration, 1)
	srv := mustSpawn(n, "replier", func(p *Proc) {
		for {
			_, src, err := p.Receive()
			if err != nil {
				return
			}
			var reply Message
			reply.SetWord(1, 7)
			start := time.Now()
			errs <- p.ReplyWithSegment(&reply, src, 0, data)
			took <- time.Since(start)
		}
	})
	return srv.Pid(), errs, took
}

// wedgeTransport holds its node's first MoveTo data packet in the upcall
// until released, wedging that flow's dispatch worker.
type wedgeTransport struct {
	Transport
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *wedgeTransport) SetHandler(h func(*bufpool.Buf)) {
	w.Transport.SetHandler(func(f *bufpool.Buf) {
		if vproto.Kind(f.Data[0]) == vproto.KindMoveToData {
			w.once.Do(func() {
				close(w.entered)
				<-w.release
			})
		}
		h(f)
	})
}

// TestStreamedReplyOvertakesItsTrain: on UDPTransport a streamed reply
// is handled on the read loop, so with the train's first packet wedged on
// its flow's worker the reply arrives before any byte has landed. The
// kernel holds it (ipc.replies_held), and Send returns only once the
// worker has landed every byte.
func TestStreamedReplyOvertakesItsTrain(t *testing.T) {
	ta, tb := transportPair(t, "udp")
	wedge := &wedgeTransport{Transport: ta, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := NodeConfig{RetransmitTimeout: time.Second}
	client, server := NewNode(1, wedge, cfg), NewNode(2, tb, cfg)
	var once sync.Once
	unwedge := func() { once.Do(func() { close(wedge.release) }) }
	t.Cleanup(func() {
		unwedge()
		_ = client.Close()
		_ = server.Close()
	})
	data := trainData()
	srv, errs, _ := replyServer(t, server, data)
	p := mustAttach(client, "client")
	defer client.Detach(p)

	seg := make([]byte, len(data))
	done := make(chan error, 1)
	go func() {
		var m Message
		err := p.Send(&m, srv, &Segment{Data: seg, Access: SegWrite})
		if err == nil && m.Word(1) != 7 {
			err = fmt.Errorf("reply word 1 = %d, want 7", m.Word(1))
		}
		done <- err
	}()
	select {
	case <-wedge.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the train never reached the client")
	}
	for deadline := time.Now().Add(5 * time.Second); counter(client, "ipc.replies_held") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the reply was never held while its train was wedged")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Send returned (%v) before its stream landed", err)
	case <-time.After(20 * time.Millisecond):
	}
	unwedge()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, data) {
		t.Error("Send returned before the segment held every byte")
	}
	if err := <-errs; err != nil {
		t.Errorf("ReplyWithSegment: %v", err)
	}
	if got := counter(client, "ipc.replies_held"); got != 1 {
		t.Errorf("ipc.replies_held = %d, want 1", got)
	}
}

// TestReplyWithSegmentSizes: ReplyWithSegment carries any size into the
// sender's grant, byte for byte, on both transports: in the reply packet
// up to MaxData, as a stream the reply follows beyond it. A grant one
// byte too small fails before anything is sent and leaves the exchange
// awaiting a reply, so a plain Reply still completes it.
func TestReplyWithSegmentSizes(t *testing.T) {
	for _, kind := range transportKinds {
		for _, size := range []int{1, vproto.MaxData, vproto.MaxData + 1, 64 << 10} {
			t.Run(fmt.Sprintf("%s/%d", kind, size), func(t *testing.T) {
				client, server := nodePair(t, kind, NodeConfig{RetransmitTimeout: time.Second})
				data := patterned(size)
				srv, errs, _ := replyServer(t, server, data)
				p := mustAttach(client, "client")
				defer client.Detach(p)
				seg := make([]byte, size+3)
				var m Message
				if err := p.Send(&m, srv, &Segment{Data: seg, Access: SegWrite}); err != nil {
					t.Fatal(err)
				}
				if err := <-errs; err != nil {
					t.Fatalf("ReplyWithSegment: %v", err)
				}
				if !bytes.Equal(seg[:size], data) || !bytes.Equal(seg[size:], make([]byte, 3)) {
					t.Fatal("the segment does not hold exactly the reply's bytes")
				}
				if m.Word(1) != 7 {
					t.Fatalf("reply word 1 = %d, want 7", m.Word(1))
				}

				small := make([]byte, size-1)
				got := make(chan error, 1)
				srv2 := mustSpawn(server, "refused", func(p *Proc) {
					_, src, err := p.Receive()
					if err != nil {
						return
					}
					moves, replies := counter(server, "ipc.move_ops"), counter(server, "ipc.remote_replies")
					var reply Message
					err = p.ReplyWithSegment(&reply, src, 0, data)
					if counter(server, "ipc.move_ops") != moves || counter(server, "ipc.remote_replies") != replies {
						err = fmt.Errorf("refused ReplyWithSegment sent something (err %v)", err)
					}
					got <- err
					reply.SetWord(1, 9)
					if err := p.Reply(&reply, src); err != nil {
						t.Errorf("follow-up Reply: %v", err)
					}
				}).Pid()
				m = Message{}
				if err := p.Send(&m, srv2, &Segment{Data: small, Access: SegWrite}); err != nil {
					t.Fatalf("sender stranded by a refused ReplyWithSegment: %v", err)
				}
				if err := <-got; err != ErrBadAddress {
					t.Fatalf("ReplyWithSegment into a short grant: %v, want %v", err, ErrBadAddress)
				}
				if m.Word(1) != 9 {
					t.Fatalf("reply word 1 = %d, want the follow-up's 9", m.Word(1))
				}
			})
		}
	}
}

// dropAckTransport discards the first complete MoveToAck its node sends.
type dropAckTransport struct {
	Transport
	mu      sync.Mutex
	dropped bool
}

func (d *dropAckTransport) Send(to LogicalHost, pkt []byte) error {
	var p vproto.Packet
	if vproto.DecodeInto(&p, pkt) == nil && p.Kind == vproto.KindMoveToAck && p.Flags&vproto.FlagLast != 0 {
		d.mu.Lock()
		drop := !d.dropped
		d.dropped = true
		d.mu.Unlock()
		if drop {
			return nil
		}
	}
	return d.Transport.Send(to, pkt)
}

func (d *dropAckTransport) didDrop() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// TestStreamedReplyLostCompletionAck: the completion ack of a streamed
// reply is lost. The sender's Send does not wait for it — its reply was
// delivered the moment the stream landed — and the replier is never left
// to its whole retry budget:
//   - last: no Send follows. The next retransmission of the stream's last
//     packet, one RetransmitTimeout later, names an exchange that has
//     ended, and the sender's kernel acks it again.
//   - next-send: a reader in a loop Sends again at once, and that Send
//     acks the stream before any retransmission.
func TestStreamedReplyLostCompletionAck(t *testing.T) {
	const rto = 200 * time.Millisecond
	for _, tc := range []struct {
		name string
		next bool
	}{{"last", false}, {"next-send", true}} {
		next := tc.next
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewMemNetwork(1, FaultConfig{})
			t.Cleanup(mesh.Close)
			cfg := NodeConfig{RetransmitTimeout: rto, Retries: 5}
			drop := &dropAckTransport{Transport: mesh.Transport(1)}
			client, server := NewNode(1, drop, cfg), NewNode(2, mesh.Transport(2), cfg)
			t.Cleanup(func() {
				_ = client.Close()
				_ = server.Close()
			})
			data := trainData()
			srv, errs, took := replyServer(t, server, data)
			p := mustAttach(client, "client")
			defer client.Detach(p)

			exchanges := 1
			if next {
				exchanges = 2
			}
			for range exchanges {
				seg := make([]byte, len(data))
				var m Message
				start := time.Now()
				if err := p.Send(&m, srv, &Segment{Data: seg, Access: SegWrite}); err != nil {
					t.Fatal(err)
				}
				if sent := time.Since(start); sent >= rto {
					t.Errorf("Send took %v, waiting on the lost ack (RetransmitTimeout %v)", sent, rto)
				}
				if !bytes.Equal(seg, data) {
					t.Fatal("the segment does not hold the reply's bytes")
				}
			}
			if !drop.didDrop() {
				t.Fatal("no completion ack was dropped; test is vacuous")
			}
			limit, retransmits := 2*rto, int64(1) // released by the one retransmission's re-ack
			if next {
				limit, retransmits = rto, 0 // released by the next Send, before any retransmission
			}
			for i := range exchanges {
				if err := <-errs; err != nil {
					t.Fatalf("ReplyWithSegment %d: %v", i, err)
				}
				if d := <-took; d >= limit {
					t.Errorf("replier %d was held %v, want under %v", i, d, limit)
				}
			}
			if got := counter(server, "ipc.retransmits"); got != retransmits {
				t.Errorf("ipc.retransmits = %d on the replier's node, want %d", got, retransmits)
			}
			if got := counter(client, "ipc.bad_packets"); got != 0 {
				t.Errorf("the re-acked last packet counted as %d bad packets", got)
			}
		})
	}
}
