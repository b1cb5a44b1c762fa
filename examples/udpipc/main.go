// Real V IPC over UDP: the same interkernel protocol the simulation
// reproduces from the paper, running between two in-process "kernels" on
// loopback UDP sockets. A file-page service answers page reads with
// ReplyWithSegment and accepts writes whose data rides inline with the
// Send packet — two datagrams per page operation, no transport layer,
// reliability from the reply-as-acknowledgement machinery.
package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"vkernel/internal/ipc"
)

const pageSize = 512

// The page service's word layout (Verex-style I/O protocol): word 1
// selects the operation, word 2 names the page; the reply carries a
// status in word 1.
const (
	wordOp     = 1
	wordPage   = 2
	wordStatus = 1

	opRead  uint32 = 1
	opWrite uint32 = 2

	statusOK    uint32 = 0
	statusBadOp uint32 = 1
)

func main() {
	// Two nodes = two workstations. Peer addresses play the role of the
	// §3.1 logical-host-to-network-address table.
	trA, err := ipc.NewUDPTransport("127.0.0.1:0")
	must(err)
	trB, err := ipc.NewUDPTransport("127.0.0.1:0")
	must(err)
	trA.AddPeer(2, trB.Addr())
	trB.AddPeer(1, trA.Addr())
	nodeA := ipc.NewNode(1, trA, ipc.NodeConfig{})
	nodeB := ipc.NewNode(2, trB, ipc.NodeConfig{})
	defer nodeA.Close()
	defer nodeB.Close()

	// The server: a 64-page in-memory "disk" serving the Verex-style I/O
	// protocol. Word 1: 1 = read page, 2 = write page; word 2: page number.
	_, err = nodeB.Spawn("pageserver", func(p *ipc.Proc) {
		store := make([]byte, 64*pageSize)
		p.SetPid(1, p.Pid(), ipc.ScopeBoth) // logical id 1 = "fileserver"
		buf := make([]byte, pageSize)
		for {
			msg, src, n, err := p.ReceiveWithSegment(buf)
			if err != nil {
				return
			}
			page := int(msg.Word(wordPage)) % 64
			var reply ipc.Message
			switch msg.Word(wordOp) {
			case opRead: // the page travels in the reply packet
				reply.SetWord(wordStatus, statusOK)
				err = p.ReplyWithSegment(&reply, src, 0, store[page*pageSize:(page+1)*pageSize])
			case opWrite: // the data arrived inline with the Send
				copy(store[page*pageSize:], buf[:n])
				reply.SetWord(wordStatus, statusOK)
				err = p.Reply(&reply, src)
			default:
				reply.SetWord(wordStatus, statusBadOp)
				err = p.Reply(&reply, src)
			}
			if err != nil {
				return
			}
		}
	})
	must(err)

	// The client: resolve the server by logical id, write a page, read it
	// back, and time a burst of page reads over real sockets.
	client, err := nodeA.Attach("client")
	must(err)
	defer nodeA.Detach(client)

	server := client.GetPid(1, ipc.ScopeBoth)
	if server == 0 {
		panic("pageserver not resolved")
	}
	fmt.Printf("resolved pageserver -> %v\n", server)

	out := make([]byte, pageSize)
	for i := range out {
		out[i] = byte(i * 11)
	}
	var w ipc.Message
	w.SetWord(wordOp, opWrite)
	w.SetWord(wordPage, 7)
	must(client.Send(&w, server, &ipc.Segment{Data: out, Access: ipc.SegRead}))

	in := make([]byte, pageSize)
	var r ipc.Message
	r.SetWord(wordOp, opRead)
	r.SetWord(wordPage, 7)
	must(client.Send(&r, server, &ipc.Segment{Data: in, Access: ipc.SegWrite}))
	if !bytes.Equal(in, out) {
		panic("page corrupted over UDP")
	}
	fmt.Println("page 7 wrote and read back intact (2 datagrams each way)")

	const n = 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		var m ipc.Message
		m.SetWord(wordOp, opRead)
		m.SetWord(wordPage, uint32(i))
		must(client.Send(&m, server, &ipc.Segment{Data: in, Access: ipc.SegWrite}))
	}
	per := time.Since(start) / n
	fmt.Printf("%d page reads over loopback UDP: %v/page\n", n, per)
	fmt.Println("node A counters:")
	nodeA.Metrics().Do(func(name string, v int64) {
		if strings.HasPrefix(name, "ipc.") {
			fmt.Printf("  %-24s %d\n", name, v)
		}
	}, nil, nil)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
