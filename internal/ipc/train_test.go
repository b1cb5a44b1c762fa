package ipc

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

func patterned(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>10)
	}
	return data
}

// TestTrainSizes moves transfers whose sizes sit on every edge of the
// train framing — one byte, exactly one packet, one packet and a byte, a
// full frame and a byte, the 64 KB the file service uses, several frames —
// both ways over every transport at two packet sizes, byte for byte. On
// plain UDP, the transport with the TrainSender capability, nothing may
// be resumed, dropped or retransmitted on the way.
func TestTrainSizes(t *testing.T) {
	sizes := []int{1, 1024, 1025, 60*1024 + 1, 64 << 10, 200 << 10}
	for _, kind := range transportKinds {
		for _, chunk := range []int{512, 1024} {
			t.Run(fmt.Sprintf("%s/chunk=%d", kind, chunk), func(t *testing.T) {
				client, server := nodePair(t, kind, NodeConfig{ChunkSize: chunk, RetransmitTimeout: time.Second})
				for _, size := range sizes {
					data := patterned(size)
					moveBothWays(t, client, moveServer(t, server, data), data, 2)
				}
				if kind != "udp" {
					return
				}
				if resumes, ooo, retrans := moveCounters(client, server); resumes != 0 || ooo != 0 || retrans != 0 {
					t.Errorf("move_resumes=%d move_ooo_drops=%d retransmits=%d, want all 0", resumes, ooo, retrans)
				}
			})
		}
	}
}

// TestTrainFallbackWhenGSORefused: a kernel that refuses UDP_SEGMENT (no
// checksum offload, a small MTU, an old kernel) costs the transport one
// failed send, after which trains go out datagram by datagram — and every
// transfer, including the one whose first frame was refused, is exact.
func TestTrainFallbackWhenGSORefused(t *testing.T) {
	ta, tb := transportPair(t, "udp")
	for _, tr := range []Transport{ta, tb} {
		tr.(*UDPTransport).sendGSO = func(*net.UDPConn, []byte, int, *net.UDPAddr) error {
			return &net.OpError{Op: "write", Err: syscall.EIO}
		}
	}
	cfg := NodeConfig{RetransmitTimeout: time.Second}
	client, server := NewNode(1, ta, cfg), NewNode(2, tb, cfg)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	for _, size := range []int{64 << 10, 200 << 10} {
		data := patterned(size)
		moveBothWays(t, client, moveServer(t, server, data), data, 3)
	}
	if resumes, ooo, retrans := moveCounters(client, server); resumes != 0 || ooo != 0 || retrans != 0 {
		t.Errorf("move_resumes=%d move_ooo_drops=%d retransmits=%d, want all 0", resumes, ooo, retrans)
	}
	for name, tr := range map[string]*UDPTransport{"client": ta.(*UDPTransport), "server": tb.(*UDPTransport)} {
		if got := tr.gsoRefusals.Load(); got != 1 {
			t.Errorf("%s: net.gso_refused = %d, want 1 (remembered after the first)", name, got)
		}
		// Every packet after the refused frame paid its own crossing.
		if sends, pkts := tr.sends.Load(), tr.txPackets.Load(); sends != pkts+1 {
			t.Errorf("%s: net.sends = %d, net.tx_packets = %d, want sends = packets + the refused send", name, sends, pkts)
		}
	}
}

// TestUDPTrainsArriveWhole: a 64 KB MoveTo and a 64 KB MoveFromVec over
// UDP land byte for byte, and where the kernel segments and coalesces,
// each train frame reaches the receiving transport as one datagram that
// goes to a worker whole (net.rx_trains) while net.rx_packets still
// counts its packets.
func TestUDPTrainsArriveWhole(t *testing.T) {
	client, server := nodePair(t, "udp", NodeConfig{RetransmitTimeout: time.Second})
	ct, st := client.transport.(*UDPTransport), server.transport.(*UDPTransport)
	data := trainData()
	vec := [][]byte{make([]byte, 1000), make([]byte, 30000), make([]byte, len(data)-31000)}
	mover, puller := moveServer(t, server, data), pullServer(t, server, vec)
	p := mustAttach(client, "client")
	defer client.Detach(p)

	// 64 packets of 1 KB: a frame of 60, then one of 4.
	const frames = 2
	check := func(what string, rx *UDPTransport, send func() error) {
		t.Helper()
		trains, pkts, inline := rx.rxTrains.Load(), rx.rxPackets.Load(), rx.rxInline.Load()
		if err := send(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		// The read loop counts a datagram's packets after handing them on,
		// so the Send can complete first (and an earlier exchange's last
		// count land in this one): wait for at least the train's 64.
		moves := func() int64 { return rx.rxPackets.Load() - pkts - (rx.rxInline.Load() - inline) }
		for deadline := time.Now().Add(time.Second); moves() < 64 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := moves(); got < 64 {
			t.Errorf("%s: net.rx_packets counted %d packets for the workers, want the train's 64", what, got)
		}
		got := rx.rxTrains.Load() - trains
		if ct.gsoRefusals.Load()+st.gsoRefusals.Load() > 0 || got == 0 {
			t.Logf("%s: net.rx_trains +%d: no segmentation or receive offload here", what, got)
			return
		}
		if got != frames {
			t.Errorf("%s: net.rx_trains +%d, want +%d, one per train frame", what, got, frames)
		}
	}

	buf := make([]byte, len(data))
	check("MoveTo", ct, func() error {
		var m Message
		m.SetWord(1, 1)
		return p.Send(&m, mover, &Segment{Data: buf, Access: SegWrite})
	})
	if !bytes.Equal(buf, data) {
		t.Error("MoveTo delivered wrong bytes")
	}
	check("MoveFromVec", st, func() error {
		var m Message
		return p.Send(&m, puller, &Segment{Data: data, Access: SegRead})
	})
	if !bytes.Equal(bytes.Join(vec, nil), data) {
		t.Error("MoveFromVec pulled wrong bytes")
	}
	if resumes, ooo, retrans := moveCounters(client, server); resumes != 0 || ooo != 0 || retrans != 0 {
		t.Errorf("move_resumes=%d move_ooo_drops=%d retransmits=%d, want all 0", resumes, ooo, retrans)
	}
}

// splitHarness is an rxBatch whose two exits — the inline upcall and the
// dispatcher's workers — record every packet they are handed, per lane
// (inlineLane, or the move packet's flow), in handling order, and whether
// it was lent from a whole-datagram item (a borrowed view, no references,
// which carries the item's packets back to back and is cut back into
// them here, seg bytes apiece) or came in a frame of its own.
type splitHarness struct {
	batch           *rxBatch
	rx              *dispatcher[rxItem]
	handler, worker atomic.Pointer[func(*bufpool.Buf)]
	trains          *obs.Counter
	seg             int // the segment size split was given
	mu              sync.Mutex
	lanes           map[int64][][]byte
	first           *int64   // the lane handed the first frame
	lent            int      // packets handed over as views of a whole datagram
	put             [][]byte // whole datagrams' buffers given back
}

const inlineLane = -1

func newSplitHarness(workers int) *splitHarness {
	h := &splitHarness{lanes: make(map[int64][][]byte), trains: obs.New().Counter("net.rx_trains")}
	inline := func(f *bufpool.Buf) { h.record(inlineLane, f) }
	h.handler.Store(&inline)
	worker := func(f *bufpool.Buf) { h.record(int64(flowOf(f.Data)), f) }
	h.worker.Store(&worker)
	views := make([]bufpool.Buf, workers)
	put := func(b []byte) {
		h.mu.Lock()
		h.put = append(h.put, b)
		h.mu.Unlock()
	}
	h.rx = newDispatcher(workers, 0, func(w int, items []rxItem) {
		for i := range items {
			items[i].deliver(&h.worker, &views[w], put)
		}
	})
	h.batch = newRxBatch(h.rx, &h.handler, obs.New().Counter("net.rx_inline"), h.trains)
	return h
}

func (h *splitHarness) record(lane int64, f *bufpool.Buf) {
	h.mu.Lock()
	for rest := f.Data; ; {
		pkt := rest
		if f.Refs() == 0 {
			pkt = rest[:min(h.seg, len(rest))]
			h.lent++
		}
		h.lanes[lane] = append(h.lanes[lane], append([]byte(nil), pkt...))
		if h.first == nil {
			h.first = &lane
		}
		if rest = rest[len(pkt):]; len(rest) == 0 {
			break
		}
	}
	h.mu.Unlock()
}

// split feeds one datagram through the batch, stops the workers and
// checks what both exits saw against the datagram cut into segSize-byte
// packets: each packet exactly once, whole, in its lane — exchange
// packets inline, move packets queued — and each lane in arrival order.
// Two or more move packets of one flow must have gone to the worker as
// one whole-datagram item whose buffer was given back, and so must such
// a train led by an exchange packet of its flow, but for that head, which
// must have been handled inline, first, in a frame of its own; anything
// else split into frames, none of them leaked. It returns how many
// packets addSegments reported.
func (h *splitHarness) split(t *testing.T, dgram []byte, segSize int) int {
	t.Helper()
	before := bufpool.Outstanding()
	h.seg = segSize
	n, whole := h.batch.addSegments(dgram, segSize)
	h.rx.close()
	if segSize <= 0 {
		segSize = len(dgram)
	}
	want, moves, flows := 0, 0, map[uint32]bool{}
	for rest := dgram; ; {
		seg := rest[:min(segSize, len(rest))]
		want++
		lane := int64(inlineLane)
		if queued(seg) {
			lane = int64(flowOf(seg))
			moves++
			flows[flowOf(seg)] = true
		}
		if got := h.lanes[lane]; len(got) == 0 || !bytes.Equal(got[0], seg) {
			t.Fatalf("segSize %d: packet %d (%d bytes) is not the next frame of lane %d", segSize, want, len(seg), lane)
		}
		h.lanes[lane] = h.lanes[lane][1:]
		if rest = rest[len(seg):]; len(rest) == 0 {
			break
		}
	}
	for lane, extra := range h.lanes {
		if len(extra) > 0 {
			t.Fatalf("lane %d got %d frames the datagram does not hold", lane, len(extra))
		}
	}
	if n != want {
		t.Fatalf("addSegments reported %d packets, the datagram holds %d", n, want)
	}
	head := !queued(dgram) && flows[flowOf(dgram)] // an exchange packet leading its flow's moves
	wantWhole := len(flows) == 1 && (want > 1 && moves == want || head && moves > 1 && moves == want-1)
	lent, trains := 0, int64(0)
	if wantWhole {
		lent, trains = moves, 1
		if head && *h.first != inlineLane {
			t.Fatalf("segSize %d: the head of a %d-packet train went to lane %d first, want inline", segSize, want, *h.first)
		}
	}
	if whole != wantWhole || h.lent != lent || h.trains.Load() != trains {
		t.Fatalf("segSize %d, %d packets, %d moves of %d flows: whole=%v, %d packets lent, net.rx_trains=%d; want whole=%v, %d, %d",
			segSize, want, moves, len(flows), whole, h.lent, h.trains.Load(), wantWhole, lent, trains)
	}
	if wantWhole {
		if len(h.put) != 1 || &h.put[0][0] != &dgram[0] {
			t.Fatal("the whole datagram's buffer was not given back")
		}
	} else if len(h.put) != 0 {
		t.Fatal("a split datagram's buffer was given back")
	}
	if leaked := bufpool.Outstanding() - before; leaked != 0 {
		t.Fatalf("%d frames outstanding after the split", leaked)
	}
	return n
}

// TestShortTrainsChargedForTheirBuffer: the dispatch bound charges a
// train for its 64 KB receive buffer, not its packets, so a stalled
// worker's queue of short trains — every 64 KB transfer ends in a
// 4-packet train frame — blocks the read loop at about the memory
// udpQueueDepth pooled 1 KB frames hold, not 128 buffers of 64 KB.
func TestShortTrainsChargedForTheirBuffer(t *testing.T) {
	const segSize = vproto.HeaderSize + vproto.MessageSize + vproto.MaxData
	pkt := vproto.Packet{Kind: vproto.KindMoveToData, Seq: 9, Src: vproto.MakePid(1, 1), Dst: vproto.MakePid(2, 7), Data: patterned(vproto.MaxData)}
	wire, err := pkt.Encode()
	if err != nil || len(wire) != segSize {
		t.Fatalf("encode: %d bytes, %v", len(wire), err)
	}
	tail := bytes.Repeat(wire, 4)

	taken, release := make(chan int, 1), make(chan struct{})
	var put atomic.Int64
	rx := newDispatcher(1, udpQueueDepth, func(_ int, items []rxItem) {
		select {
		case taken <- len(items):
			<-release // the first batch stalls the worker
		default:
		}
		for i := range items {
			put.Add(1)
			putRxBuf(items[i].train)
		}
	})
	var nop atomic.Pointer[func(*bufpool.Buf)]
	b := newRxBatch(rx, &nop, obs.New().Counter("net.rx_inline"), obs.New().Counter("net.rx_trains"))
	const total = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range total {
			buf := getRxBuf()
			if _, whole := b.addSegments(buf[:copy(buf, tail)], segSize); !whole {
				t.Error("a one-flow train was split")
			}
		}
	}()

	first := <-taken
	q := rx.queues[0]
	for {
		q.mu.Lock()
		full, pending := q.packets >= udpQueueDepth, len(q.pending)
		q.mu.Unlock()
		if full {
			slots := (rxBufSize + segSize - 1) / segSize
			if held, limit := first+pending, 2*(udpQueueDepth/slots+1); held > limit {
				t.Errorf("the read loop blocked holding %d train buffers, want at most %d", held, limit)
			}
			break
		}
		select {
		case <-done:
			t.Fatalf("%d short trains queued behind a stalled worker without blocking the read loop", total)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	<-done
	rx.close()
	if got := put.Load(); got != total {
		t.Fatalf("%d of %d train buffers given back", got, total)
	}
}

// TestSplitSegmentsTwoFlows: receive offload coalesces by socket pair, so
// one super-datagram can interleave the packets of two process pairs and
// end in a short one — here an exchange packet. The splitter must hand
// every move packet to its flow's worker in arrival order and the
// exchange packet to the inline upcall, each whole.
func TestSplitSegmentsTwoFlows(t *testing.T) {
	h := newSplitHarness(4)
	const segSize = vproto.HeaderSize + vproto.MessageSize + 256
	flows := []Pid{vproto.MakePid(1, 1), vproto.MakePid(1, 2)} // consecutive pids: different workers
	var dgram []byte
	next := map[Pid]uint32{}
	for i := 0; i < 21; i++ {
		src := flows[i%3%2] // a, b, a, a, b, a, …
		pkt := vproto.Packet{Kind: vproto.KindMoveToData, Seq: 9, Src: src, Dst: vproto.MakePid(2, 7), Offset: next[src], Data: patterned(256)}
		if i == 20 {
			pkt.Kind, pkt.Data = vproto.KindReply, pkt.Data[:100] // the short tail
		}
		next[src]++
		wire, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dgram = append(dgram, wire...)
	}
	if got := h.split(t, dgram, segSize); got != 21 {
		t.Fatalf("addSegments split %d packets, want 21", got)
	}
}

// pushedSend encodes a Send granting read access to a segment and the
// first packets of the push behind it, back to back, all 1,088 bytes;
// the pushed packets come from pushSrc, the Send's sender or not.
func pushedSend(pushed int, pushSrc Pid) []byte {
	src, dst := vproto.MakePid(1, 1), vproto.MakePid(2, 7)
	data := patterned(pushMax)
	send := vproto.Packet{Kind: vproto.KindSend, Seq: 5, Src: src, Dst: dst, Count: vproto.MaxData, Data: data[:vproto.MaxData]}
	send.Msg.SetSegment(0, pushMax, SegRead)
	dgram, _ := send.Encode()
	for i := 0; i < pushed; i++ {
		off := i * vproto.MaxData
		push := vproto.Packet{Kind: vproto.KindMoveFromData, Flags: vproto.FlagStreamed, Seq: 5, Src: pushSrc, Dst: dst,
			Offset: uint32(off), Count: pushMax, Data: data[off : off+vproto.MaxData]}
		wire, _ := push.Encode()
		dgram = append(dgram, wire...)
	}
	return dgram
}

// FuzzSplitSegments: whatever the datagram length, the segment size and
// the control bytes claim, parsing and splitting must not panic, and the
// frames leaving both exits must cover the datagram exactly once, each
// lane in order, leaking none.
func FuzzSplitSegments(f *testing.F) {
	f.Add([]byte("0123456789"), 3, []byte{})
	f.Add([]byte{}, 0, []byte{1, 2, 3})
	f.Add(make([]byte, 2500), 1088, make([]byte, 24))
	f.Add([]byte("x"), -5, []byte{24, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 104, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	// Move packets of two flows around exchange packets, 20 bytes apiece.
	mixed := bytes.Repeat([]byte{byte(vproto.KindMoveToData), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 0, 0, 0}, 6)
	mixed[20*2], mixed[20*3+11], mixed[20*5] = byte(vproto.KindSend), 2, byte(vproto.KindReply)
	f.Add(mixed, 20, []byte{})
	// One flow's move packets, handed to its worker whole — and the same
	// train ending in a short Reply, split.
	f.Add(bytes.Repeat(mixed[:20], 5), 20, []byte{})
	f.Add(append(bytes.Repeat(mixed[:20], 4), mixed[20*5:20*5+10]...), 20, []byte{})
	// A Send carrying a full inline prefix is as long as the packets of
	// the push behind it and leads the push's first train frame, so
	// receive offload hands the two back as one datagram: the Send goes
	// inline, first, then its pushed packets to their worker whole.
	const pushSeg = vproto.HeaderSize + vproto.MessageSize + vproto.MaxData
	sender := vproto.MakePid(1, 1)
	f.Add(pushedSend(4, sender), pushSeg, []byte{})
	// The same Send followed by one pushed packet, and followed by moves
	// of another flow: both split.
	f.Add(pushedSend(1, sender), pushSeg, []byte{})
	f.Add(pushedSend(3, vproto.MakePid(1, 2)), pushSeg, []byte{})
	// A Reply leading a train of its flow: whole but for the Reply.
	f.Add(append(append([]byte(nil), mixed[20*5:20*6]...), bytes.Repeat(mixed[:20], 3)...), 20, []byte{})
	f.Fuzz(func(t *testing.T, dgram []byte, segSize int, oob []byte) {
		for _, seg := range []int{segSize, groSegSize(oob)} {
			newSplitHarness(2).split(t, dgram, seg)
		}
	})
}
