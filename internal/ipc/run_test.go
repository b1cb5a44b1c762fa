package ipc

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// TestTrainLandsOneRunPerFrame: over UDP, where the kernel segments and
// coalesces, each of a 64 KB transfer's two train frames lands on the
// receiving node as one run (ipc.rx_runs), for a MoveTo, a streamed
// ReplyWithSegment and a pushed MoveFromVec alike, byte for byte, with
// nothing dropped, resumed or retransmitted.
func TestTrainLandsOneRunPerFrame(t *testing.T) {
	client, server := nodePair(t, "udp", NodeConfig{RetransmitTimeout: time.Second})
	ct, st := client.transport.(*UDPTransport), server.transport.(*UDPTransport)
	data := trainData()
	mover := moveServer(t, server, data)
	replier, replied, _ := replyServer(t, server, data)
	pulled := [][]byte{make([]byte, 1000), make([]byte, len(data)-1000)}
	pusher, pushed := pushServer(server, func(p *Proc, src Pid, _ Message) error { return p.MoveFromVec(src, 0, pulled...) })
	p := mustAttach(client, "client")
	defer client.Detach(p)

	exchange := func(to Pid, word uint32, seg []byte, access byte) error {
		var m Message
		m.SetWord(1, word)
		return p.Send(&m, to, &Segment{Data: seg, Access: access})
	}
	for _, tc := range []struct {
		name string
		rx   *Node // where the train lands
		tr   *UDPTransport
		run  func() ([]byte, error)
	}{
		{"MoveTo", client, ct, func() ([]byte, error) {
			buf := make([]byte, len(data))
			return buf, exchange(mover, 1, buf, SegWrite)
		}},
		{"ReplyWithSegment", client, ct, func() ([]byte, error) {
			buf := make([]byte, len(data))
			if err := exchange(replier, 0, buf, SegWrite); err != nil {
				return nil, err
			}
			return buf, <-replied
		}},
		{"pushed MoveFromVec", server, st, func() ([]byte, error) {
			if err := exchange(pusher, 0, data, SegRead); err != nil {
				return nil, err
			}
			return bytes.Join(pulled, nil), <-pushed
		}},
	} {
		runs, trains := counter(tc.rx, "ipc.rx_runs"), tc.tr.rxTrains.Load()
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s landed wrong bytes", tc.name)
		}
		if frames := tc.tr.rxTrains.Load() - trains; ct.gsoRefusals.Load()+st.gsoRefusals.Load() > 0 || frames == 0 {
			t.Logf("%s: net.rx_trains +%d: no segmentation or receive offload here", tc.name, frames)
			return
		}
		if got := counter(tc.rx, "ipc.rx_runs") - runs; got != 2 {
			t.Errorf("%s: ipc.rx_runs +%d, want +2, one per train frame", tc.name, got)
		}
	}
	for _, name := range []string{"ipc.move_ooo_drops", "ipc.move_resumes", "ipc.push_drops", "ipc.retransmits"} {
		if got := counter(client, name) + counter(server, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// sink is a Transport that delivers nothing and records every packet its
// node sends.
type sink struct {
	mu   sync.Mutex
	sent []*vproto.Packet
	more chan struct{} // a packet was recorded
}

func (s *sink) Send(_ LogicalHost, pkt []byte) error {
	if p, err := vproto.Decode(pkt); err == nil {
		s.mu.Lock()
		s.sent = append(s.sent, p)
		s.mu.Unlock()
		select {
		case s.more <- struct{}{}:
		default:
		}
	}
	return nil
}

func (s *sink) Broadcast(pkt []byte) error          { return s.Send(0, pkt) }
func (s *sink) SetHandler(func(frame *bufpool.Buf)) {}
func (s *sink) Close() error                        { return nil }

// await returns the first packet of kind the node has sent, waiting for
// it up to five seconds.
func (s *sink) await(t testing.TB, kind vproto.Kind) *vproto.Packet {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		for _, p := range s.sent {
			if p.Kind == kind {
				s.mu.Unlock()
				return p
			}
		}
		s.mu.Unlock()
		select {
		case <-s.more:
		case <-timeout:
			t.Fatalf("the node sent no %v", kind)
		}
	}
}

// landRig is a node on a sink, its local pids minted from 2.1 on and its
// timers an hour long, on which a test opens exchanges and then feeds
// their data packets by hand, every outcome deterministic.
type landRig struct {
	n   *Node
	out *sink
	wg  sync.WaitGroup
	mu  sync.Mutex
	res []string // how each exchange ended, in the order they were opened
}

// Remote processes the rig's exchanges are with.
var (
	rigMover  = vproto.MakePid(1, 1)
	rigPuller = vproto.MakePid(1, 2)
	rigPusher = vproto.MakePid(1, 3)
)

func newLandRig() *landRig {
	r := &landRig{out: &sink{more: make(chan struct{}, 1)}}
	r.n = NewNode(2, r.out, NodeConfig{RetransmitTimeout: time.Hour})
	r.n.nextLocal.Store(0)
	return r
}

// async runs an exchange's blocking call and records how it ended.
func (r *landRig) async(call func() string) {
	r.mu.Lock()
	i := len(r.res)
	r.res = append(r.res, "open")
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		res := call()
		r.mu.Lock()
		r.res[i] = res
		r.mu.Unlock()
	}()
}

// send opens a Send from a new local process to rigMover granting seg
// for writing and returns the Send's seq, which the mover's packets name.
func (r *landRig) send(t testing.TB, seg []byte) uint32 {
	p := mustAttach(r.n, "sender")
	r.async(func() string {
		var m Message
		err := p.Send(&m, rigMover, &Segment{Data: seg, Access: SegWrite})
		return fmt.Sprintf("Send: %v, reply word %d", err, m.Word(1))
	})
	return r.out.await(t, vproto.KindSend).Seq
}

// receive hands a new local process a Send (seq) from src granting size
// bytes with access, its first MaxData bytes of data inline if readable,
// as a real sender's, and returns the process once it has received it.
func (r *landRig) receive(t testing.TB, src Pid, seq uint32, data []byte, access byte) *Proc {
	p := mustAttach(r.n, "receiver")
	pkt := vproto.Packet{Kind: vproto.KindSend, Seq: seq, Src: src, Dst: p.Pid()}
	pkt.Msg.SetSegment(0, uint32(len(data)), access)
	if access&SegRead != 0 {
		pkt.Data = data[:min(len(data), vproto.MaxData)]
		pkt.Count = uint32(len(pkt.Data))
	}
	r.feed(false, encode(t, pkt))
	if _, from, err := p.Receive(); err != nil || from != src {
		t.Fatalf("receive: from %v, %v", from, err)
	}
	return p
}

// moveFrom runs p's MoveFromVec of src's segment into dst.
func (r *landRig) moveFrom(p *Proc, src Pid, dst []byte) {
	r.async(func() string { return fmt.Sprintf("MoveFromVec: %v", p.MoveFromVec(src, 0, dst)) })
}

// feed hands the node one datagram's packets: whole, in one upcall of a
// lent view as a UDP worker hands it a coalesced train, or one by one in
// frames of their own.
func (r *landRig) feed(whole bool, pkts ...[]byte) {
	if whole {
		view := bufpool.Buf{Data: bytes.Join(pkts, nil)}
		r.n.handlePacket(&view)
		return
	}
	for _, pkt := range pkts {
		f := bufpool.Get(len(pkt))
		copy(f.Data, pkt)
		r.n.handlePacket(f)
		f.Release()
	}
}

// close shuts the node down, failing what is still open, and waits for
// every exchange to end.
func (r *landRig) close() {
	_ = r.n.Close()
	r.wg.Wait()
}

func encode(t testing.TB, pkt vproto.Packet) []byte {
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// train encodes the data packets of one stream (hdr: kind, flags, seq,
// pids, Count, message) that cover data[from:to], MaxData each, the last
// of the stream flagged FlagLast.
func train(t testing.TB, hdr vproto.Packet, data []byte, from, to int) [][]byte {
	var pkts [][]byte
	for off := from; off < to; off += vproto.MaxData {
		pkt := hdr
		pkt.Offset, pkt.Data = uint32(off), data[off:min(off+vproto.MaxData, len(data))]
		if off+len(pkt.Data) == int(hdr.Count) {
			pkt.Flags |= vproto.FlagLast
		}
		pkts = append(pkts, encode(t, pkt))
	}
	return pkts
}

// moveTrain is train for MoveTo stream (seq) into dst's Send send.
func moveTrain(t testing.TB, dst Pid, send, stream uint32, flags uint16, data []byte, from, to int) [][]byte {
	hdr := vproto.Packet{Kind: vproto.KindMoveToData, Flags: flags, Seq: stream, Src: rigMover, Dst: dst, Count: uint32(len(data))}
	hdr.Msg.SetWord(wordMoveSend, send)
	return train(t, hdr, data, from, to)
}

// moveFromTrain is train for MoveFromData from src to dst: a pull's
// (seq, its op's), or with FlagStreamed a push's (seq, its Send's).
func moveFromTrain(t testing.TB, src, dst Pid, seq uint32, flags uint16, data []byte) [][]byte {
	return train(t, vproto.Packet{Kind: vproto.KindMoveFromData, Flags: flags, Seq: seq, Src: src, Dst: dst, Count: uint32(len(data))}, data, 0, len(data))
}

// cut returns pkts without the packets at the given indices.
func cut(pkts [][]byte, drop ...int) [][]byte {
	out := make([][]byte, 0, len(pkts))
	for i, p := range pkts {
		if !slices.Contains(drop, i) {
			out = append(out, p)
		}
	}
	return out
}

// landCase opens exchanges on a rig and feeds it datagrams, each whole or
// packet by packet; dst is where its data lands, all of it if full.
type landCase struct {
	name string
	full bool
	run  func(t *testing.T, r *landRig, whole bool) (dst []byte)
}

// landOutcome is everything a rig's feeding could have changed.
type landOutcome struct {
	landed   []byte
	counters map[string]int64
	sent     []string
	results  []string
	runs     int64
}

func (c landCase) outcome(t *testing.T, whole bool) landOutcome {
	r := newLandRig()
	dst := c.run(t, r, whole)
	r.close()
	o := landOutcome{landed: dst, counters: map[string]int64{}, results: r.res, runs: counter(r.n, "ipc.rx_runs")}
	for _, name := range []string{"ipc.bad_packets", "ipc.move_ooo_drops", "ipc.move_resumes", "ipc.push_drops", "ipc.push_hits", "ipc.replies_held"} {
		o.counters[name] = counter(r.n, name)
	}
	for _, p := range r.out.sent {
		o.sent = append(o.sent, fmt.Sprintf("%v flags %#x seq %d %v→%v offset %d count %d", p.Kind, p.Flags, p.Seq, p.Src, p.Dst, p.Offset, p.Count))
	}
	return o
}

// TestRunLandsAsItsPackets is the run path's differential oracle: each
// train below, fed to a node once as one lent view per datagram (the
// worker path of a coalesced train) and once packet by packet, must land
// the same bytes, move the same counters, send the same acks and
// requests and end its exchanges the same way — in order, with a gap, a
// duplicate or a corrupt packet mid-run, a resent last packet leading
// the resumed train, for a superseded exchange or stream, pushed before
// and after the MoveFrom registers and after the reply, and a streamed
// reply held until its run completes.
func TestRunLandsAsItsPackets(t *testing.T) {
	data := patterned(16 << 10)
	moveTo := func(name string, full bool, datagrams func(t *testing.T, send uint32) [][][]byte) landCase {
		return landCase{"MoveTo " + name, full, func(t *testing.T, r *landRig, whole bool) []byte {
			seg := make([]byte, len(data))
			send := r.send(t, seg)
			for _, d := range datagrams(t, send) {
				r.feed(whole, d...)
			}
			return seg
		}}
	}
	inOrder := func(t *testing.T, send uint32) [][][]byte {
		return [][][]byte{moveTrain(t, vproto.MakePid(2, 1), send, 7, 0, data, 0, len(data))}
	}
	const pulled, pushed = 8 << 10, 8 << 10
	pull := func(name string, full bool, damage func([][]byte) [][]byte) landCase {
		return landCase{"pull " + name, full, func(t *testing.T, r *landRig, whole bool) []byte {
			p := r.receive(t, rigPuller, 40, data[:pulled], SegRead|SegWrite)
			dst := make([]byte, pulled)
			r.moveFrom(p, rigPuller, dst)
			op := r.out.await(t, vproto.KindMoveFromReq).Seq
			r.feed(whole, damage(moveFromTrain(t, rigPuller, p.Pid(), op, 0, data[:pulled]))...)
			return dst
		}}
	}
	// push sends p's Send a push, fed by feed, and pulls it as a
	// MoveFromVec (started by pull) into dst.
	push := func(name string, full bool, run func(t *testing.T, r *landRig, p *Proc, feed func(pkts [][]byte), dst []byte)) landCase {
		return landCase{"push " + name, full, func(t *testing.T, r *landRig, whole bool) []byte {
			p := r.receive(t, rigPusher, 50, data[:pushed], SegRead)
			dst := make([]byte, pushed)
			run(t, r, p, func(pkts [][]byte) { r.feed(whole, pkts...) }, dst)
			return dst
		}}
	}
	pushTrain := func(t *testing.T, p *Proc) [][]byte {
		return moveFromTrain(t, rigPusher, p.Pid(), 50, vproto.FlagStreamed, data[:pushed])
	}
	waitPull := func(t *testing.T, r *landRig) {
		waitFor(t, "the MoveFrom to wait on the push", func() bool {
			r.n.aliens.mu.Lock()
			defer r.n.aliens.mu.Unlock()
			return r.n.aliens.m[rigPusher].pushOp != 0
		})
	}

	for _, c := range []landCase{
		moveTo("in order", true, inOrder),
		moveTo("gap at packet 5", false, func(t *testing.T, send uint32) [][][]byte {
			return [][][]byte{cut(inOrder(t, send)[0], 5)}
		}),
		moveTo("duplicate packet", true, func(t *testing.T, send uint32) [][][]byte {
			pkts := inOrder(t, send)[0]
			return [][][]byte{slices.Insert(pkts, 6, pkts[5])}
		}),
		moveTo("corrupt CRC mid-run", false, func(t *testing.T, send uint32) [][][]byte {
			pkts := inOrder(t, send)[0]
			pkts[5] = append([]byte(nil), pkts[5]...)
			pkts[5][29] ^= 0xff
			return [][][]byte{pkts}
		}),
		moveTo("resent last packet, then the resumed train", true, func(t *testing.T, send uint32) [][][]byte {
			pkts := inOrder(t, send)[0]
			return [][][]byte{cut(pkts, 5), append([][]byte{pkts[len(pkts)-1]}, pkts[5:]...)}
		}),
		moveTo("in two datagrams", true, func(t *testing.T, send uint32) [][][]byte {
			pkts := inOrder(t, send)[0]
			return [][][]byte{pkts[:10], pkts[10:]}
		}),
		moveTo("of a superseded exchange", false, func(t *testing.T, send uint32) [][][]byte {
			return [][][]byte{moveTrain(t, vproto.MakePid(2, 1), send-1, 7, 0, data, 0, len(data))}
		}),
		moveTo("of a superseded exchange's streamed reply", false, func(t *testing.T, send uint32) [][][]byte {
			return [][][]byte{moveTrain(t, vproto.MakePid(2, 1), send-1, 7, vproto.FlagStreamed, data, 0, len(data))}
		}),
		moveTo("of a superseded stream", false, func(t *testing.T, send uint32) [][][]byte {
			return [][][]byte{moveTrain(t, vproto.MakePid(2, 1), send, 8, 0, data, 0, 4096), inOrder(t, send)[0]}
		}),
		{"streamed reply held until its run completes", true, func(t *testing.T, r *landRig, whole bool) []byte {
			seg := make([]byte, len(data))
			send := r.send(t, seg)
			reply := vproto.Packet{Kind: vproto.KindReply, Flags: vproto.FlagStreamed, Seq: send, Src: rigMover, Dst: vproto.MakePid(2, 1), Offset: 7, Count: uint32(len(data))}
			reply.Msg.SetWord(1, 42)
			r.feed(false, encode(t, reply))
			pkts := moveTrain(t, reply.Dst, send, 7, vproto.FlagStreamed, data, 0, len(data))
			r.feed(whole, pkts[:10]...)
			r.feed(whole, pkts[10:]...)
			return seg
		}},
		pull("in order", true, func(pkts [][]byte) [][]byte { return pkts }),
		pull("gap at packet 3", false, func(pkts [][]byte) [][]byte { return cut(pkts, 3) }),
		push("before its MoveFrom registers", true, func(t *testing.T, r *landRig, p *Proc, feed func([][]byte), dst []byte) {
			feed(pushTrain(t, p))
			r.res = append(r.res, fmt.Sprintf("MoveFromVec: %v", p.MoveFromVec(rigPusher, 0, dst)))
		}),
		push("after its MoveFrom registers", true, func(t *testing.T, r *landRig, p *Proc, feed func([][]byte), dst []byte) {
			r.moveFrom(p, rigPusher, dst)
			waitPull(t, r)
			feed(pushTrain(t, p))
		}),
		push("with a gap, after its MoveFrom registers", false, func(t *testing.T, r *landRig, p *Proc, feed func([][]byte), dst []byte) {
			r.moveFrom(p, rigPusher, dst)
			waitPull(t, r)
			feed(cut(pushTrain(t, p), 3))
		}),
		push("for a replied descriptor", false, func(t *testing.T, r *landRig, p *Proc, feed func([][]byte), dst []byte) {
			var reply Message
			if err := p.Reply(&reply, rigPusher); err != nil {
				t.Fatal(err)
			}
			feed(pushTrain(t, p))
		}),
	} {
		t.Run(c.name, func(t *testing.T) {
			run, pkts := c.outcome(t, true), c.outcome(t, false)
			if !bytes.Equal(run.landed, pkts.landed) {
				t.Error("the run landed other bytes than its packets")
			}
			if c.full && !bytes.Equal(run.landed, data[:len(run.landed)]) {
				t.Error("the train did not land whole")
			}
			for _, diff := range []struct {
				what      string
				run, pkts any
			}{
				{"counters", run.counters, pkts.counters},
				{"sent packets", run.sent, pkts.sent},
				{"exchange results", run.results, pkts.results},
			} {
				if fmt.Sprint(diff.run) != fmt.Sprint(diff.pkts) {
					t.Errorf("%s differ:\n as a run:   %v\n by packets: %v", diff.what, diff.run, diff.pkts)
				}
			}
			if pkts.runs != 0 || run.runs == 0 && run.counters["ipc.bad_packets"] == 0 {
				t.Errorf("ipc.rx_runs = %d as a run, %d by packets; want some and 0", run.runs, pkts.runs)
			}
		})
	}
}

// FuzzLandRun: whatever datagram, cut at whatever segment size, reaches a
// node through the UDP worker path — a coalesced train lent whole, the
// rest in frames — while it holds a live MoveTo grant (guard bytes on
// both sides of the segment), a live pull and a live push descriptor,
// landing it must not panic or write outside the grant, and once the node
// has closed every frame it took must be back in the pool.
func FuzzLandRun(f *testing.F) {
	data := patterned(16 << 10)
	const seg = vproto.HeaderSize + vproto.MessageSize + vproto.MaxData
	// What the rig below opens: Send 1 from 2.1, pull op 2 into 2.2, the
	// push behind Send 50 to 2.3.
	moves := bytes.Join(moveTrain(f, vproto.MakePid(2, 1), 1, 7, 0, data, 0, len(data)), nil)
	pulls := bytes.Join(moveFromTrain(f, rigPuller, vproto.MakePid(2, 2), 2, 0, data[:8<<10]), nil)
	pushes := bytes.Join(moveFromTrain(f, rigPusher, vproto.MakePid(2, 3), 50, vproto.FlagStreamed, data[:8<<10]), nil)
	f.Add(moves, seg)
	f.Add(pulls, seg)
	f.Add(pushes, seg)
	f.Add(append(pushes[:3*seg:3*seg], pulls...), seg)
	corrupt := append([]byte(nil), moves...)
	corrupt[5*seg+100] ^= 1
	f.Add(corrupt, seg)
	f.Add(moves[:4*seg+10], seg)
	f.Add(moves, 700)
	f.Add([]byte{byte(vproto.KindMoveToData)}, 0)
	f.Fuzz(func(t *testing.T, dgram []byte, segSize int) {
		before := bufpool.Outstanding()
		r := newLandRig()
		guarded := bytes.Repeat([]byte{0xEE}, len(data)+128)
		r.send(t, guarded[64:64+len(data):64+len(data)])
		p := r.receive(t, rigPuller, 40, data[:8<<10], SegRead|SegWrite)
		r.moveFrom(p, rigPuller, make([]byte, 8<<10))
		r.out.await(t, vproto.KindMoveFromReq)
		r.receive(t, rigPusher, 50, data[:8<<10], SegRead)

		var h atomic.Pointer[func(*bufpool.Buf)]
		up := r.n.handlePacket
		h.Store(&up)
		var view bufpool.Buf
		rx := newDispatcher(1, 0, func(_ int, items []rxItem) {
			for i := range items {
				items[i].deliver(&h, &view, func([]byte) {})
			}
		})
		b := newRxBatch(rx, &h, obs.New().Counter("net.rx_inline"), obs.New().Counter("net.rx_trains"))
		b.addSegments(append([]byte(nil), dgram...), segSize)
		rx.close()
		r.close()
		for _, g := range [][]byte{guarded[:64], guarded[64+len(data):]} {
			if !bytes.Equal(g, bytes.Repeat([]byte{0xEE}, 64)) {
				t.Fatal("a run wrote past the granted segment")
			}
		}
		if leaked := bufpool.Outstanding() - before; leaked != 0 {
			t.Fatalf("%d pooled buffers outstanding after Close", leaked)
		}
	})
}
