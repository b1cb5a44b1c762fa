package ipc

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// transportKinds names every Transport implementation; the ordering and
// train tests run over each.
var transportKinds = []string{"udp", "mem"}

// transportPair returns two connected, fault-free transports for hosts 1
// and 2. The caller closes them (a Node does); the mesh behind the mem
// pair is closed after them.
func transportPair(t *testing.T, kind string) (Transport, Transport) {
	t.Helper()
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	switch kind {
	case "udp":
		a, err := NewUDPTransport("127.0.0.1:0")
		fail(err)
		b, err := NewUDPTransport("127.0.0.1:0")
		fail(err)
		a.AddPeer(2, b.Addr())
		b.AddPeer(1, a.Addr())
		return a, b
	case "mem":
		mesh := NewMemNetwork(1, FaultConfig{})
		t.Cleanup(mesh.Close)
		return mesh.Transport(1), mesh.Transport(2)
	}
	t.Fatalf("unknown transport kind %q", kind)
	return nil, nil
}

// nodePair builds nodes 1 and 2 on a transport pair and closes them with
// the test.
func nodePair(t *testing.T, kind string, cfg NodeConfig) (*Node, *Node) {
	t.Helper()
	ta, tb := transportPair(t, kind)
	na, nb := NewNode(1, ta, cfg), NewNode(2, tb, cfg)
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
	})
	return na, nb
}

// moveCounters sums the bulk-transfer waste and retransmission counters
// of the given nodes.
func moveCounters(nodes ...*Node) (resumes, oooDrops, retransmits int64) {
	for _, n := range nodes {
		resumes += n.stats.moveResumes.Load()
		oooDrops += n.stats.moveOOODrops.Load()
		retransmits += n.stats.retransmits.Load()
	}
	return
}

// TestDispatchKeepsFlowOrder is the Transport ordering contract for move
// packets: four interleaved flows of numbered frames reach the handler
// each in its own order with nothing lost, while two flows are provably
// being handled on different workers at once (flow 0's first upcall does
// not return until flow 1's first upcall has run, which a shared worker
// could never do).
func TestDispatchKeepsFlowOrder(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			src, dst := transportPair(t, kind)
			t.Cleanup(func() {
				_ = src.Close()
				_ = dst.Close()
			})
			const flows, frames = 4, 5000
			var (
				next     [flows]uint32 // next[f] is touched only by flow f's upcalls
				got      atomic.Int64
				misorder atomic.Int64
				parallel atomic.Bool
				met      = make(chan struct{})
				progress = make(chan struct{}, 1) // a frame was counted
			)
			dst.SetHandler(func(f *bufpool.Buf) {
				var pkt vproto.Packet
				if err := vproto.DecodeInto(&pkt, f.Data); err != nil {
					t.Errorf("undecodable frame: %v", err)
					return
				}
				flow := int(pkt.Src.Local()) - 1
				if pkt.Offset == 0 {
					switch flow {
					case 1:
						close(met)
					case 0:
						select {
						case <-met:
							parallel.Store(true)
						case <-time.After(5 * time.Second):
						}
					}
				}
				if pkt.Offset != next[flow] {
					misorder.Add(1)
				}
				next[flow] = pkt.Offset + 1
				got.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			})
			waitFor := func(n int64) {
				deadline := time.After(20 * time.Second)
				for got.Load() < n {
					select {
					case <-progress:
					case <-deadline:
						t.Fatalf("%d of %d frames arrived", got.Load(), flows*frames)
					}
				}
			}
			wire := make([]byte, vproto.HeaderSize+vproto.MessageSize)
			for k := 0; k < frames; k++ {
				for flow := 0; flow < flows; flow++ {
					pkt := vproto.Packet{
						Kind:   vproto.KindMoveToData, // a queued kind; the handler is ours
						Seq:    1,
						Src:    vproto.MakePid(1, uint16(flow+1)),
						Dst:    vproto.MakePid(2, 9),
						Offset: uint32(k),
					}
					if _, err := pkt.EncodeInto(wire); err != nil {
						t.Fatal(err)
					}
					if err := src.Send(2, wire); err != nil {
						t.Fatal(err)
					}
				}
				// Stay well inside the socket buffer: loss is not what
				// this test is about.
				waitFor(int64((k+1)*flows) - 512)
			}
			waitFor(flows * frames)
			if n := misorder.Load(); n != 0 {
				t.Errorf("%d frames reached the handler out of their flow's order", n)
			}
			for flow, n := range next {
				if n != frames {
					t.Errorf("flow %d ended at frame %d, want %d", flow, n, frames)
				}
			}
			if !parallel.Load() {
				t.Error("flows 0 and 1 were never handled on different workers")
			}
		})
	}
}

// TestExchangePacketsOvertakeQueuedMoves is the contract for exchange
// packets: on UDPTransport a Reply is handled where it is read, so
// it reaches the handler while a move upcall of its own flow is wedged on
// a worker, and the flow's queued moves still follow in order once the
// upcall returns. MemNetwork queues everything: the Reply comes after
// every move sent before it.
func TestExchangePacketsOvertakeQueuedMoves(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			src, dst := transportPair(t, kind)
			t.Cleanup(func() {
				_ = src.Close()
				_ = dst.Close()
			})
			const moves = 8
			var (
				release = make(chan struct{})
				entered = make(chan struct{})
				arrived = make(chan vproto.Packet, moves+1)
			)
			var once sync.Once
			unwedge := func() { once.Do(func() { close(release) }) }
			t.Cleanup(unwedge) // runs before the transports close
			dst.SetHandler(func(f *bufpool.Buf) {
				var pkt vproto.Packet
				if err := vproto.DecodeInto(&pkt, f.Data); err != nil {
					t.Errorf("undecodable frame: %v", err)
					return
				}
				pkt.Data = nil // aliases the frame
				arrived <- pkt
				if pkt.Kind == vproto.KindMoveToData && pkt.Offset == 0 {
					close(entered)
					<-release
				}
			})
			flow := vproto.Packet{Seq: 1, Src: vproto.MakePid(1, 1), Dst: vproto.MakePid(2, 9)}
			send := func(k vproto.Kind, off uint32) {
				pkt := flow
				pkt.Kind, pkt.Offset = k, off
				wire, err := pkt.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Send(2, wire); err != nil {
					t.Fatal(err)
				}
			}
			for off := uint32(0); off < moves; off++ {
				send(vproto.KindMoveToData, off)
			}
			next := func(what string) vproto.Packet {
				select {
				case pkt := <-arrived:
					return pkt
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never reached the handler", what)
					return vproto.Packet{}
				}
			}
			if pkt := next("the first move"); pkt.Kind != vproto.KindMoveToData || pkt.Offset != 0 {
				t.Fatalf("first upcall: %v offset %d, want the first move", pkt.Kind, pkt.Offset)
			}
			<-entered
			send(vproto.KindReply, 0)
			if kind != "mem" {
				if pkt := next("the Reply, with its flow's worker wedged,"); pkt.Kind != vproto.KindReply {
					t.Fatalf("upcall during the wedged move: %v offset %d, want the Reply", pkt.Kind, pkt.Offset)
				}
			}
			unwedge()
			for off := uint32(1); off < moves; off++ {
				if pkt := next("a queued move"); pkt.Kind != vproto.KindMoveToData || pkt.Offset != off {
					t.Fatalf("upcall: %v offset %d, want move %d", pkt.Kind, pkt.Offset, off)
				}
			}
			if kind == "mem" {
				if pkt := next("the Reply"); pkt.Kind != vproto.KindReply {
					t.Fatalf("last upcall: %v offset %d, want the Reply", pkt.Kind, pkt.Offset)
				}
			}
		})
	}
}

// moveServer spawns a process that serves bulk exchanges against the
// sender's granted segment: word 1 = 1 moves want into it (MoveTo),
// word 1 = 2 pulls it and compares it with want (MoveFrom), answering
// with word 1 = 1 for a match.
func moveServer(t *testing.T, n *Node, want []byte) Pid {
	ready := make(chan Pid, 1)
	mustSpawn(n, "mover", func(p *Proc) {
		ready <- p.Pid()
		buf := make([]byte, len(want))
		for {
			msg, src, err := p.Receive()
			if err != nil {
				return
			}
			var reply Message
			switch msg.Word(1) {
			case 1:
				if err := p.MoveTo(src, 0, want); err != nil {
					t.Errorf("MoveTo: %v", err)
				}
			case 2:
				if err := p.MoveFrom(src, 0, buf); err != nil {
					t.Errorf("MoveFrom: %v", err)
				} else if bytes.Equal(buf, want) {
					reply.SetWord(1, 1)
				}
			}
			if err := p.Reply(&reply, src); err != nil {
				return
			}
		}
	})
	return <-ready
}

// moveBothWays runs rounds of one MoveTo and one MoveFrom of data
// between a fresh client process and the server, checking every byte.
func moveBothWays(t *testing.T, client *Node, server Pid, data []byte, rounds int) {
	p := mustAttach(client, "streamer")
	defer client.Detach(p)
	buf := make([]byte, len(data))
	for i := 0; i < rounds; i++ {
		clear(buf)
		var m Message
		m.SetWord(1, 1)
		if err := p.Send(&m, server, &Segment{Data: buf, Access: SegWrite}); err != nil {
			t.Errorf("round %d MoveTo exchange: %v", i, err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("round %d: MoveTo delivered wrong bytes", i)
			return
		}
		m = Message{}
		m.SetWord(1, 2)
		if err := p.Send(&m, server, &Segment{Data: buf, Access: SegRead}); err != nil {
			t.Errorf("round %d MoveFrom exchange: %v", i, err)
			return
		}
		if m.Word(1) != 1 {
			t.Errorf("round %d: MoveFrom pulled wrong bytes", i)
			return
		}
	}
}

func trainData() []byte { return patterned(64 << 10) }

// TestTrainsNeedNoResume: on a network that neither loses nor reorders,
// a 64 KB transfer in either direction is one train and one
// acknowledgement — no packet dropped as out of order, no resume, no
// retransmission — over every transport, and with four trains at a time
// converging on one socket (the socket buffers hold them). The
// retransmit timeout is a second so that a descheduled test cannot pass
// for a lost packet; a real loss would still be counted.
func TestTrainsNeedNoResume(t *testing.T) {
	for _, tc := range []struct {
		kind            string
		streams, rounds int
	}{
		{"udp", 1, 1000},
		{"udp", 4, 250},
		{"mem", 1, 250},
	} {
		t.Run(fmt.Sprintf("%s/streams=%d", tc.kind, tc.streams), func(t *testing.T) {
			client, server := nodePair(t, tc.kind, NodeConfig{RetransmitTimeout: time.Second})
			data := trainData()
			var wg sync.WaitGroup
			for s := 0; s < tc.streams; s++ {
				pid := moveServer(t, server, data)
				wg.Add(1)
				go func() {
					defer wg.Done()
					moveBothWays(t, client, pid, data, tc.rounds)
				}()
			}
			wg.Wait()
			resumes, ooo, retrans := moveCounters(client, server)
			if resumes != 0 || ooo != 0 || retrans != 0 {
				t.Errorf("move_resumes=%d move_ooo_drops=%d retransmits=%d, want all 0", resumes, ooo, retrans)
			}
		})
	}
}

// TestGoBackNUnderReordering keeps the §3.3 recovery path covered on
// purpose now that ordered dispatch no longer exercises it by accident:
// a mesh that delays packets by random amounts (so they overtake each
// other) and drops some must still complete 64 KB transfers byte-exact,
// by discarding what arrives out of place and resuming from the gap.
func TestGoBackNUnderReordering(t *testing.T) {
	mesh := NewMemNetwork(7, FaultConfig{DropProb: 0.02, MaxDelay: 200 * time.Microsecond})
	t.Cleanup(mesh.Close)
	cfg := NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 100}
	client, server := NewNode(1, mesh.Transport(1), cfg), NewNode(2, mesh.Transport(2), cfg)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	data := trainData()
	moveBothWays(t, client, moveServer(t, server, data), data, 5)
	resumes, ooo, _ := moveCounters(client, server)
	if resumes == 0 || ooo == 0 {
		t.Errorf("move_resumes=%d move_ooo_drops=%d under reordering and loss, want both > 0", resumes, ooo)
	}
}

// tapTransport records every frame its node receives and can feed one
// back in later, as a network that delivers a packet very late would.
type tapTransport struct {
	Transport
	mu     sync.Mutex
	upcall func(*bufpool.Buf)
	seen   [][]byte
}

func (tt *tapTransport) SetHandler(h func(*bufpool.Buf)) {
	tt.mu.Lock()
	tt.upcall = h
	tt.mu.Unlock()
	tt.Transport.SetHandler(func(f *bufpool.Buf) {
		tt.mu.Lock()
		tt.seen = append(tt.seen, append([]byte(nil), f.Data...))
		tt.mu.Unlock()
		h(f)
	})
}

func (tt *tapTransport) replay(frame []byte) {
	tt.mu.Lock()
	h := tt.upcall
	tt.mu.Unlock()
	f := bufpool.Get(len(frame))
	copy(f.Data, frame)
	h(f)
	f.Release()
}

// TestLateMovePacketOfEarlierExchange: a MoveTo data packet of exchange
// n that the network delivers during exchange n+1 of the same two
// processes must not touch the segment granted by exchange n+1. (Matched
// on the pid pair alone it did: the packet below is the first of a
// transfer the receiver no longer remembers, so it was accepted as the
// start of a new stream and its kilobyte written at offset 0.)
func TestLateMovePacketOfEarlierExchange(t *testing.T) {
	mesh := NewMemNetwork(1, FaultConfig{})
	t.Cleanup(mesh.Close)
	tap := &tapTransport{Transport: mesh.Transport(1)}
	client, server := NewNode(1, tap, NodeConfig{}), NewNode(2, mesh.Transport(2), NodeConfig{})
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})

	old := bytes.Repeat([]byte{0xAA}, 2048)
	release := make(chan struct{})
	srv := mustSpawn(server, "server", func(p *Proc) {
		for {
			msg, src, err := p.Receive()
			if err != nil {
				return
			}
			if msg.Word(1) == 1 {
				// Two transfers, so the first is not the one the
				// receiver remembers as just completed.
				for i := 0; i < 2; i++ {
					if err := p.MoveTo(src, 0, old); err != nil {
						t.Errorf("MoveTo: %v", err)
					}
				}
			} else {
				<-release
			}
			var reply Message
			_ = p.Reply(&reply, src)
		}
	})
	p := mustAttach(client, "client")
	defer client.Detach(p)

	var m Message
	m.SetWord(1, 1)
	if err := p.Send(&m, srv.Pid(), &Segment{Data: make([]byte, len(old)), Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	var late []byte
	tap.mu.Lock()
	for _, frame := range tap.seen {
		if vproto.Kind(frame[0]) == vproto.KindMoveToData {
			late = frame // the first: offset 0 of the first transfer
			break
		}
	}
	tap.mu.Unlock()
	if late == nil {
		t.Fatal("captured no MoveTo data packet")
	}

	seg := make([]byte, len(old))
	done := make(chan error, 1)
	go func() {
		var m Message
		m.SetWord(1, 2)
		done <- p.Send(&m, srv.Pid(), &Segment{Data: seg, Access: SegWrite})
	}()
	// remote_sends counts an exchange once it is in the pending table,
	// and this one stays there until release.
	deadline := time.Now().Add(5 * time.Second)
	for client.stats.remoteSends.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second exchange never started")
		}
		time.Sleep(time.Millisecond)
	}
	bad := client.stats.badPackets.Load()
	tap.replay(late)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, make([]byte, len(seg))) {
		t.Error("a data packet of the previous exchange was written into this exchange's segment")
	}
	if got := client.stats.badPackets.Load() - bad; got != 1 {
		t.Errorf("bad_packets rose by %d for the stray packet, want 1", got)
	}
}
