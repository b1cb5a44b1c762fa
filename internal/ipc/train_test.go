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

// splitHarness is an rxBatch whose two exits — the inline upcall and the
// dispatcher's workers — record every frame they are handed, per lane
// (inlineLane, or the move packet's flow), in handling order.
type splitHarness struct {
	batch   *rxBatch
	rx      *dispatcher[*bufpool.Buf]
	handler atomic.Pointer[func(*bufpool.Buf)]
	mu      sync.Mutex
	lanes   map[int64][][]byte
}

const inlineLane = -1

func newSplitHarness(workers int) *splitHarness {
	h := &splitHarness{lanes: make(map[int64][][]byte)}
	inline := func(f *bufpool.Buf) { h.record(inlineLane, f) }
	h.handler.Store(&inline)
	h.rx = newDispatcher(workers, 0, func(_ int, frames []*bufpool.Buf) {
		for _, f := range frames {
			h.record(int64(flowOf(f.Data)), f)
			f.Release()
		}
	})
	h.batch = newRxBatch(h.rx, &h.handler, obs.New().Counter("net.rx_inline"))
	return h
}

func (h *splitHarness) record(lane int64, f *bufpool.Buf) {
	h.mu.Lock()
	h.lanes[lane] = append(h.lanes[lane], append([]byte(nil), f.Data...))
	h.mu.Unlock()
}

// split feeds one datagram through the batch, stops the workers and
// checks what both exits saw against the datagram cut into segSize-byte
// packets: each packet exactly once, whole, in its lane — exchange
// packets inline, move packets queued — and each lane in arrival order.
// It returns how many packets addSegments reported.
func (h *splitHarness) split(t *testing.T, dgram []byte, segSize int) int {
	t.Helper()
	before := bufpool.Outstanding()
	n := h.batch.addSegments(dgram, segSize)
	h.batch.flush()
	h.rx.close()
	if segSize <= 0 {
		segSize = len(dgram)
	}
	want := 0
	for rest := dgram; ; {
		seg := rest[:min(segSize, len(rest))]
		want++
		lane := int64(inlineLane)
		if queued(seg) {
			lane = int64(flowOf(seg))
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
	if leaked := bufpool.Outstanding() - before; leaked != 0 {
		t.Fatalf("%d frames outstanding after the split", leaked)
	}
	return n
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
	f.Fuzz(func(t *testing.T, dgram []byte, segSize int, oob []byte) {
		for _, seg := range []int{segSize, groSegSize(oob)} {
			newSplitHarness(2).split(t, dgram, seg)
		}
	})
}
