package ipc

import (
	"bytes"
	"testing"
	"time"
)

// pullServer spawns a process on n that, for each received message,
// pulls the sender's granted segment into the given scatter list and
// replies. Returns the puller's pid.
func pullServer(t *testing.T, n *Node, vec [][]byte) Pid {
	t.Helper()
	return mustSpawn(n, "puller", func(p *Proc) {
		for {
			_, src, err := p.Receive()
			if err != nil {
				return
			}
			if err := p.MoveFromVec(src, 0, vec...); err != nil {
				t.Errorf("MoveFromVec: %v", err)
			}
			var reply Message
			_ = p.Reply(&reply, src)
		}
	}).Pid()
}

// TestMoveFromVecScatter: a scatter MoveFrom must land the pulled bytes
// across its destination slices in order, with packet boundaries that do
// not line up with slice boundaries (slices smaller, equal to, and larger
// than the chunk size), both remotely and locally.
func TestMoveFromVecScatter(t *testing.T) {
	mesh := NewMemNetwork(11, FaultConfig{})
	na := NewNode(1, mesh.Transport(1), NodeConfig{})
	nb := NewNode(2, mesh.Transport(2), NodeConfig{ChunkSize: 300})
	defer func() { _ = na.Close(); _ = nb.Close(); mesh.Close() }()

	// 7 slices of awkward sizes, 4221 bytes total: packets of 300 bytes
	// straddle slice boundaries everywhere.
	sizes := []int{1, 299, 300, 301, 512, 1024, 1784}
	total := 0
	vec := make([][]byte, 0, len(sizes))
	for _, n := range sizes {
		vec = append(vec, make([]byte, n))
		total += n
	}
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i*13 + 7)
	}

	puller := pullServer(t, nb, vec)

	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, puller, &Segment{Data: src, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, d := range vec {
		got = append(got, d...)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("remote scatter MoveFrom corrupted the data")
	}

	// Local path: a sender on the same node lands the same bytes.
	for _, d := range vec {
		for i := range d {
			d[i] = 0
		}
	}
	local := mustAttach(nb, "local-client")
	defer nb.Detach(local)
	var lm Message
	if err := local.Send(&lm, puller, &Segment{Data: src, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, d := range vec {
		got = append(got, d...)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("local scatter MoveFrom corrupted the data")
	}
}

// TestMoveFromVecOffset: a scatter pull from a nonzero offset within the
// granted segment lands the right range.
func TestMoveFromVecOffset(t *testing.T) {
	mesh := NewMemNetwork(13, FaultConfig{})
	na := NewNode(1, mesh.Transport(1), NodeConfig{})
	nb := NewNode(2, mesh.Transport(2), NodeConfig{ChunkSize: 128})
	defer func() { _ = na.Close(); _ = nb.Close(); mesh.Close() }()

	a, b := make([]byte, 200), make([]byte, 300)
	puller := mustSpawn(nb, "puller", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		if err := p.MoveFromVec(src, 1000, a, b); err != nil {
			t.Errorf("MoveFromVec at offset: %v", err)
		}
		var reply Message
		_ = p.Reply(&reply, src)
	})

	src := make([]byte, 2048)
	for i := range src {
		src[i] = byte(i * 31)
	}
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, puller.Pid(), &Segment{Data: src, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, src[1000:1200]) || !bytes.Equal(b, src[1200:1500]) {
		t.Fatal("offset scatter MoveFrom landed the wrong range")
	}
}

// TestMoveFromVecLossy: scatter pulls must survive drops and duplication
// — the §3.3 resume re-requests from the last contiguously received byte
// and the retransmitted stream lands in the right slices.
func TestMoveFromVecLossy(t *testing.T) {
	mesh := NewMemNetwork(23, FaultConfig{DropProb: 0.15, DupProb: 0.1})
	cfg := NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 50, ChunkSize: 256}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	defer func() { _ = na.Close(); _ = nb.Close(); mesh.Close() }()

	vec := make([][]byte, 8)
	for si := range vec {
		vec[si] = make([]byte, 777)
	}
	src := make([]byte, 8*777)
	for i := range src {
		src[i] = byte(i ^ (i >> 7))
	}
	puller := pullServer(t, nb, vec)

	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	if err := client.Send(&m, puller, &Segment{Data: src, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, d := range vec {
		got = append(got, d...)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("lossy scatter MoveFrom corrupted the data")
	}
	if counter(na, "ipc.retransmits")+counter(nb, "ipc.retransmits") == 0 {
		t.Log("note: fault seed produced no retransmissions this run")
	}
}
