package ipc

import (
	"testing"
)

// TestSegmentGrants: MoveTo and ReplyWithSegment need write access over
// the range they name, MoveFrom needs read access (§2.1), and the check
// is the same for local and remote senders. A refused call returns
// ErrNoAccess or ErrBadAddress — whatever the offset, on any word size —
// and leaves the exchange open: the replier answers again and the sender
// completes, instead of being stranded in reply-pending limbo.
func TestSegmentGrants(t *testing.T) {
	na, nb, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
	type call func(p *Proc, src Pid, off uint32, n int) error
	ops := []struct {
		name string
		need byte // the access the call needs
		do   call
	}{
		{"MoveTo", SegWrite, func(p *Proc, src Pid, off uint32, n int) error {
			return p.MoveTo(src, off, make([]byte, n))
		}},
		{"MoveFrom", SegRead, func(p *Proc, src Pid, off uint32, n int) error {
			return p.MoveFrom(src, off, make([]byte, n))
		}},
		{"ReplyWithSegment", SegWrite, func(p *Proc, src Pid, off uint32, n int) error {
			var reply Message
			return p.ReplyWithSegment(&reply, src, off, make([]byte, n))
		}},
	}
	const granted = 64
	cases := []struct {
		name   string
		access func(need byte) byte // the sender's grant; 0 grants no segment
		off    uint32
		n      int
		want   error
	}{
		{"no_grant", func(byte) byte { return 0 }, 0, granted, ErrNoAccess},
		{"wrong_access", func(need byte) byte { return (SegRead | SegWrite) &^ need }, 0, granted, ErrNoAccess},
		{"past_end", func(need byte) byte { return need }, 0, 512, ErrBadAddress},
		{"offset_2GiB", func(need byte) byte { return need }, 1 << 31, granted, ErrBadAddress},
	}
	for _, peer := range []struct {
		name string
		node *Node // where the replier runs; the sender is on na
	}{{"local", na}, {"remote", nb}} {
		for _, op := range ops {
			for _, c := range cases {
				t.Run(peer.name+"/"+op.name+"/"+c.name, func(t *testing.T) {
					errs := make(chan error, 1)
					srv := mustSpawn(peer.node, "server", func(p *Proc) {
						_, src, err := p.Receive()
						if err != nil {
							errs <- err
							return
						}
						errs <- op.do(p, src, c.off, c.n)
						var reply Message
						reply.SetWord(1, 9)
						if err := p.Reply(&reply, src); err != nil {
							t.Errorf("recovery Reply failed: %v", err)
						}
					})
					client := mustAttach(na, "client")
					defer na.Detach(client)
					var seg *Segment
					if access := c.access(op.need); access != 0 {
						seg = &Segment{Data: make([]byte, granted), Access: access}
					}
					var m Message
					if err := client.Send(&m, srv.Pid(), seg); err != nil {
						t.Fatalf("sender stranded by refused call: %v", err)
					}
					if e := <-errs; e != c.want {
						t.Fatalf("%s err = %v, want %v", op.name, e, c.want)
					}
					if m.Word(1) != 9 {
						t.Fatalf("reply word = %d", m.Word(1))
					}
				})
			}
		}
	}
}
