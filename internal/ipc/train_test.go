package ipc

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"vkernel/internal/bufpool"
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

// splitHarness is an rxBatch whose dispatcher records, per flow (source
// process), the packet offsets in the order the handler saw them.
type splitHarness struct {
	batch *rxBatch
	rx    *dispatcher[*bufpool.Buf]
	mu    sync.Mutex
	order map[Pid][]uint32
	bytes [][]byte // every frame, in handling order (one worker only)
}

func newSplitHarness(workers int) *splitHarness {
	h := &splitHarness{order: make(map[Pid][]uint32)}
	h.rx = newDispatcher(workers, 0, func(_ int, frames []*bufpool.Buf) {
		for _, f := range frames {
			h.mu.Lock()
			h.bytes = append(h.bytes, append([]byte(nil), f.Data...))
			var pkt vproto.Packet
			if vproto.DecodeInto(&pkt, f.Data) == nil {
				h.order[pkt.Src] = append(h.order[pkt.Src], pkt.Offset)
			}
			h.mu.Unlock()
			f.Release()
		}
	})
	h.batch = newRxBatch(h.rx)
	return h
}

// TestSplitSegmentsTwoFlows: receive offload coalesces by socket pair, so
// one super-datagram can interleave the packets of two process pairs and
// end in a short one. The splitter must hand every packet to its flow's
// worker in arrival order, whole.
func TestSplitSegmentsTwoFlows(t *testing.T) {
	before := bufpool.Outstanding()
	h := newSplitHarness(4)
	const segSize = vproto.HeaderSize + vproto.MessageSize + 256
	flows := []Pid{vproto.MakePid(1, 1), vproto.MakePid(1, 2)} // consecutive pids: different workers
	var dgram []byte
	next := map[Pid]uint32{}
	for i := 0; i < 21; i++ {
		src := flows[i%3%2] // a, b, a, a, b, a, …
		pkt := vproto.Packet{Kind: vproto.KindMoveToData, Seq: 9, Src: src, Dst: vproto.MakePid(2, 7), Offset: next[src], Data: patterned(256)}
		if i == 20 {
			pkt.Data = pkt.Data[:100] // the short tail
		}
		next[src]++
		wire, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dgram = append(dgram, wire...)
	}
	if got := h.batch.addSegments(dgram, segSize); got != 21 {
		t.Fatalf("addSegments split %d packets, want 21", got)
	}
	h.batch.flush()
	h.rx.close()
	for _, src := range flows {
		got := h.order[src]
		if uint32(len(got)) != next[src] {
			t.Errorf("flow %v: handler saw %d packets, want %d", src, len(got), next[src])
		}
		for i, off := range got {
			if off != uint32(i) {
				t.Errorf("flow %v: packet %d reached the handler in position %d", src, off, i)
				break
			}
		}
	}
	if leaked := bufpool.Outstanding() - before; leaked != 0 {
		t.Errorf("%d frames outstanding after the split", leaked)
	}
}

// FuzzSplitSegments: whatever the datagram length, the segment size and
// the control bytes claim, parsing and splitting must not panic and the
// frames must cover the datagram exactly once, in order.
func FuzzSplitSegments(f *testing.F) {
	f.Add([]byte("0123456789"), 3, []byte{})
	f.Add([]byte{}, 0, []byte{1, 2, 3})
	f.Add(make([]byte, 2500), 1088, make([]byte, 24))
	f.Add([]byte("x"), -5, []byte{24, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 104, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dgram []byte, segSize int, oob []byte) {
		for _, seg := range []int{segSize, groSegSize(oob)} {
			h := newSplitHarness(1)
			n := h.batch.addSegments(dgram, seg)
			h.batch.flush()
			h.rx.close()
			if n != len(h.bytes) {
				t.Fatalf("addSegments reported %d packets, handler saw %d", n, len(h.bytes))
			}
			if got := bytes.Join(h.bytes, nil); !bytes.Equal(got, dgram) {
				t.Fatalf("segSize %d: frames do not reassemble the %d-byte datagram", seg, len(dgram))
			}
		}
	})
}
