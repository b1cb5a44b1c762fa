package ipc

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// batchedPair builds two nodes talking over batched loopback UDP
// transports, with small knobs so the tests also exercise hot-peer
// promotion.
func batchedPair(t *testing.T, cfg BatchConfig) (*Node, *Node, *BatchedUDPTransport, *BatchedUDPTransport) {
	t.Helper()
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewBatchedUDPTransport("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(2, tb.Addr())
	tb.AddPeer(1, ta.Addr())
	na := NewNode(1, ta, NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 20})
	nb := NewNode(2, tb, NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 20})
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
	})
	return na, nb, ta, tb
}

func TestBatchedExchange(t *testing.T) {
	na, nb, _, _ := batchedPair(t, BatchConfig{})
	server := echoOn(nb, 5)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	for i := uint32(1); i <= 5; i++ {
		var m Message
		m.SetWord(1, i)
		if err := client.Send(&m, server, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if m.Word(1) != i*2 {
			t.Fatalf("reply %d = %d", i, m.Word(1))
		}
	}
}

func TestBatchedPageReadAndWrite(t *testing.T) {
	na, nb, _, _ := batchedPair(t, BatchConfig{})
	store := make([]byte, 512)
	fs := mustSpawn(nb, "fs", func(p *Proc) {
		buf := make([]byte, 1024)
		for {
			msg, src, n, err := p.ReceiveWithSegment(buf)
			if err != nil {
				return
			}
			var reply Message
			if msg.Word(1) == 1 {
				_ = p.ReplyWithSegment(&reply, src, 0, store)
			} else {
				copy(store, buf[:n])
				_ = p.Reply(&reply, src)
			}
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)

	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i ^ 0xA5)
	}
	var wm Message
	wm.SetWord(1, 2)
	if err := client.Send(&wm, fs.Pid(), &Segment{Data: page, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	var rm Message
	rm.SetWord(1, 1)
	if err := client.Send(&rm, fs.Pid(), &Segment{Data: got, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page did not survive the batched round trip")
	}
}

// TestBatchedLargeMoveTo pushes a 256 KB MoveTo chunk train — the
// workload the egress coalescer exists for — and checks both integrity
// and that the transport actually batched some of the train (Linux).
func TestBatchedLargeMoveTo(t *testing.T) {
	// A low hot threshold also drives the sender onto a connected
	// socket partway through the train.
	na, nb, _, tb := batchedPair(t, BatchConfig{HotThreshold: 8})
	const size = 256 * 1024
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i * 13)
	}
	loader := mustSpawn(nb, "loader", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		if err := p.MoveTo(src, 0, img); err != nil {
			t.Errorf("MoveTo: %v", err)
		}
		var reply Message
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	buf := make([]byte, size)
	var m Message
	if err := client.Send(&m, loader.Pid(), &Segment{Data: buf, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("256 KB image corrupted over batched UDP")
	}
	if batchingAvailable {
		st := tb.Stats()
		if st.RecvBatches == 0 || st.Recvs < st.RecvBatches {
			t.Fatalf("no batched receives recorded: %+v", st)
		}
		if st.HotPromotion == 0 {
			t.Fatalf("expected a hot-peer promotion at threshold 8: %+v", st)
		}
	}
}

// TestBatchedCoalesce pins the egress coalescer's contract: sends that
// arrive while a flusher holds the socket are queued, and the flusher
// then moves the whole backlog in Batch-sized sendmmsg vectors — far
// fewer kernel crossings than datagrams. Timing-based concurrency can't
// force that overlap deterministically (on one CPU a solo send always
// completes first, which is exactly the no-added-latency guarantee), so
// the test holds the flushing flag itself, queues a burst, and drains.
func TestBatchedCoalesce(t *testing.T) {
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{HotPeers: -1, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(2, tb.Addr())

	var got atomic.Int32
	tb.SetHandler(func(f *bufpool.Buf) { got.Add(1) })

	const burst = 100
	pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Dst: vproto.MakePid(2, 1),
		Src: vproto.MakePid(1, 1), Count: 256, Data: make([]byte, 256)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Pose as an in-flight flusher so every Send queues behind us.
	s := ta.socks[0]
	s.mu.Lock()
	s.flushing = true
	s.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := ta.Send(2, wire); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	queued := len(s.pending)
	s.mu.Unlock()
	if queued != burst {
		t.Fatalf("queued %d of %d sends behind the flusher", queued, burst)
	}
	s.drain() // what the real flusher runs after its own write

	st := ta.Stats()
	if st.Sends != burst {
		t.Fatalf("coalescer accounted %d sends, want %d", st.Sends, burst)
	}
	if want := int64((burst + 31) / 32); st.SendBatches != want {
		t.Fatalf("burst of %d took %d kernel crossings, want %d", burst, st.SendBatches, want)
	}
	deadline := time.Now().Add(3 * time.Second)
	for got.Load() < burst/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() < burst/2 {
		t.Fatalf("receiver saw only %d/%d datagrams", got.Load(), burst)
	}
	_ = tb.Close()
}

// TestBatchedConcurrentSends hammers Send from many goroutines purely
// for the race detector and for conservation: every datagram must be
// accounted as coalesced or inline, whichever path it took.
func TestBatchedConcurrentSends(t *testing.T) {
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{HotPeers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	ta.AddPeer(2, tb.Addr())
	tb.SetHandler(func(f *bufpool.Buf) {})

	const senders = 16
	const perSender = 64
	pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Dst: vproto.MakePid(2, 1),
		Src: vproto.MakePid(1, 1), Count: 256, Data: make([]byte, 256)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = ta.Send(2, wire)
			}
		}()
	}
	wg.Wait()
	st := ta.Stats()
	if want := int64(senders * perSender); st.Sends+st.InlineSends != want {
		t.Fatalf("sends accounted %d+%d, want %d", st.Sends, st.InlineSends, want)
	}
}

// TestBatchedDispatchBufferLifetime is TestUDPDispatchBufferLifetime
// for the mmsg rx path: frames handed to the dispatch queue from a
// recvmmsg vector must not be recycled while a worker (or anyone it
// lent the frame to) still reads them.
func TestBatchedDispatchBufferLifetime(t *testing.T) {
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(2, tb.Addr())

	const packets = 300
	const payload = 512
	var verified, corrupted atomic.Int32
	var wg sync.WaitGroup
	tb.SetHandler(func(f *bufpool.Buf) {
		var pkt vproto.Packet
		if err := vproto.DecodeInto(&pkt, f.Data); err != nil {
			return
		}
		seq := pkt.Seq
		data := pkt.Data // aliases the pooled frame
		f.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Release()
			time.Sleep(2 * time.Millisecond)
			for i, b := range data {
				if b != byte(int(seq)*7+i) {
					corrupted.Add(1)
					return
				}
			}
			verified.Add(1)
		}()
	})

	for seq := uint32(1); seq <= packets; seq++ {
		pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: seq, Dst: vproto.MakePid(2, 1),
			Count: payload, Data: make([]byte, payload)}
		for i := range pkt.Data {
			pkt.Data[i] = byte(int(seq)*7 + i)
		}
		buf, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := ta.Send(2, buf); err != nil {
			t.Fatal(err)
		}
		if seq%32 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for verified.Load()+corrupted.Load() < packets && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	_ = tb.Close()
	wg.Wait()
	if corrupted.Load() > 0 {
		t.Fatalf("%d frames were recycled while still lent out", corrupted.Load())
	}
	if verified.Load() < packets/2 {
		t.Fatalf("only %d/%d packets verified; transport lost too much", verified.Load(), packets)
	}
}

// TestBatchedRxShards verifies that several SO_REUSEPORT shard sockets
// together cover many distinct peer flows: every client transport binds
// its own source port, so the kernel hash spreads them, and every
// datagram must still reach the one logical handler.
func TestBatchedRxShards(t *testing.T) {
	if !batchingAvailable {
		t.Skip("reuseport sharding requires the linux fast path")
	}
	srv, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	var got atomic.Int32
	srv.SetHandler(func(f *bufpool.Buf) { got.Add(1) })

	const clients = 8
	const perClient = 25
	for c := 0; c < clients; c++ {
		ct, err := NewUDPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ct.AddPeer(9, srv.Addr())
		pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: uint32(c + 1),
			Dst: vproto.MakePid(9, 1), Src: vproto.MakePid(vproto.LogicalHost(c+10), 1),
			Count: 64, Data: make([]byte, 64)}
		wire, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perClient; i++ {
			if err := ct.Send(9, wire); err != nil {
				t.Fatal(err)
			}
		}
		_ = ct.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for got.Load() < clients*perClient/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() < clients*perClient/2 {
		t.Fatalf("shards saw only %d/%d datagrams", got.Load(), clients*perClient)
	}
	// The server should also have learned each client's address.
	learned := 0
	for c := 0; c < clients; c++ {
		if srv.peers.get(vproto.LogicalHost(c+10)) != nil {
			learned++
		}
	}
	if learned < clients/2 {
		t.Fatalf("learned only %d/%d client addresses", learned, clients)
	}
}

// TestBatchedBroadcast checks best-effort fan-out over the cached peer
// snapshot, continuing past unreachable peers.
func TestBatchedBroadcast(t *testing.T) {
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	var sinks []*BatchedUDPTransport
	var counts [3]atomic.Int32
	for i := 0; i < 3; i++ {
		s, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, s)
		i := i
		s.SetHandler(func(f *bufpool.Buf) { counts[i].Add(1) })
		ta.AddPeer(LogicalHost(i+2), s.Addr())
	}
	defer func() {
		for _, s := range sinks {
			_ = s.Close()
		}
	}()
	pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Dst: vproto.MakePid(0, 0),
		Src: vproto.MakePid(1, 1), Count: 32, Data: make([]byte, 32)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ta.Broadcast(wire); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if counts[0].Load() > 0 && counts[1].Load() > 0 && counts[2].Load() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("broadcast reached %d/%d/%d", counts[0].Load(), counts[1].Load(), counts[2].Load())
}

// TestBatchedHotPeerRebind checks that a hot connected socket is
// demoted when its peer rebinds: traffic must follow the peer to the
// new address instead of wedging on the dead connected socket.
func TestBatchedHotPeerRebind(t *testing.T) {
	if !batchingAvailable {
		t.Skip("hot-peer sockets require the linux fast path")
	}
	ta, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{HotThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	ta.SetHandler(func(f *bufpool.Buf) {})

	sink1, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var got1 atomic.Int32
	sink1.SetHandler(func(f *bufpool.Buf) { got1.Add(1) })
	ta.AddPeer(2, sink1.Addr())

	pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Dst: vproto.MakePid(2, 1),
		Src: vproto.MakePid(1, 1), Count: 32, Data: make([]byte, 32)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		_ = ta.Send(2, wire)
	}
	if ta.Stats().HotPromotion == 0 {
		t.Fatal("peer was not promoted")
	}

	// The "server" reboots on a fresh port.
	_ = sink1.Close()
	sink2, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sink2.Close() }()
	var got2 atomic.Int32
	sink2.SetHandler(func(f *bufpool.Buf) { got2.Add(1) })
	ta.AddPeer(2, sink2.Addr())

	for i := 0; i < 16; i++ {
		_ = ta.Send(2, wire)
	}
	deadline := time.Now().Add(3 * time.Second)
	for got2.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got2.Load() == 0 {
		t.Fatal("sends never followed the peer to its new address")
	}
}

// TestBatchedPromotionKeepsFlowOrder: a peer crossing the hot threshold
// while a corked worker has part of a train queued for it on the shard
// socket must not get the rest of the train through the new connected
// socket first. (It did: the queued packets went out when the worker
// uncorked, after the later ones — a resume on a network that never
// reordered.)
func TestBatchedPromotionKeepsFlowOrder(t *testing.T) {
	if !batchingAvailable {
		t.Skip("no hot-peer sockets on this platform")
	}
	src, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{HotThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewBatchedUDPTransport("127.0.0.1:0", BatchConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = src.Close()
		_ = dst.Close()
	})
	src.AddPeer(2, dst.Addr())
	const packets = 10
	got := make(chan uint32, 2*packets)
	dst.SetHandler(func(f *bufpool.Buf) {
		var pkt vproto.Packet
		if vproto.DecodeInto(&pkt, f.Data) == nil {
			got <- pkt.Offset
		}
	})
	src.SetHandler(func(*bufpool.Buf) {})

	send := func(from, to uint32) {
		for k := from; k < to; k++ {
			pkt := vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Src: vproto.MakePid(1, 1), Dst: vproto.MakePid(2, 1), Offset: k}
			wire, err := pkt.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Send(2, wire); err != nil {
				t.Fatal(err)
			}
		}
	}
	corked := src.cork(nil) // as a worker handling a multi-frame batch does
	send(0, packets)        // crosses the threshold with packets queued
	for _, s := range corked {
		s.drain()
	}
	send(packets, 2*packets) // promoted by now: the flow moves sockets cleanly
	for want := uint32(0); want < 2*packets; want++ {
		select {
		case off := <-got:
			if off != want {
				t.Fatalf("packet %d arrived in position %d", off, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("packet %d never arrived", want)
		}
	}
	if src.Stats().HotPromotion != 1 {
		t.Errorf("hot promotions = %d, want 1 once the backlog had drained", src.Stats().HotPromotion)
	}
}
