package vproto

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary byte strings to both decoders: malformed or
// truncated frames must produce an error — never a panic, never a
// Packet whose Data overruns the input — and anything that decodes must
// re-encode to a frame that decodes to the same packet (the wire format
// round-trips).
func FuzzDecode(f *testing.F) {
	// Seed with valid frames across the packet shapes, plus mutations.
	seed := []*Packet{
		{Kind: KindSend, Seq: 1, Src: MakePid(1, 2), Dst: MakePid(3, 4)},
		{Kind: KindReply, Seq: 7, Src: 9, Dst: 10, Offset: 64, Count: 512,
			Data: bytes.Repeat([]byte{0xAB}, 512)},
		{Kind: KindMoveToData, Flags: FlagLast, Seq: 99, Offset: 4096,
			Count: 65536, Data: bytes.Repeat([]byte{0x5A}, MaxData)},
		{Kind: KindGetPid, Flags: FlagScopeRemote, Seq: 3},
		// A reply held until the MoveTo stream it covers (seq 99) lands.
		{Kind: KindReply, Flags: FlagStreamed, Seq: 7, Src: 9, Dst: 10, Offset: 99, Count: 65536},
		// The last packet of a push: 64 KB of a Send's segment streamed
		// behind the Send whose seq (5) it carries.
		{Kind: KindMoveFromData, Flags: FlagStreamed | FlagLast, Seq: 5, Src: MakePid(1, 2), Dst: MakePid(3, 4),
			Offset: 65536 - MaxData, Count: 65536, Data: bytes.Repeat([]byte{0x3C}, MaxData)},
	}
	for _, p := range seed {
		p.Msg.SetWord(1, 42)
		buf, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1]) // truncated
		mut := append([]byte(nil), buf...)
		mut[5] ^= 0x80 // corrupted
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0, Version})

	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := Decode(buf)
		var q Packet
		errInto := DecodeInto(&q, buf)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", err, errInto)
		}
		if err != nil {
			return
		}
		if len(p.Data) > len(buf) {
			t.Fatalf("decoded Data longer than input: %d > %d", len(p.Data), len(buf))
		}
		if !bytes.Equal(p.Data, q.Data) || p.Msg != q.Msg || p.Kind != q.Kind ||
			p.Flags != q.Flags || p.Seq != q.Seq || p.Src != q.Src ||
			p.Dst != q.Dst || p.Offset != q.Offset || p.Count != q.Count {
			t.Fatal("Decode and DecodeInto disagree")
		}
		// Round-trip: re-encoding must produce a frame that decodes to the
		// same packet (the input may have carried trailing garbage that
		// checksummed by luck, so compare packets, not bytes).
		re, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded packet failed: %v", err)
		}
		p2, err := Decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded packet failed: %v", err)
		}
		if !bytes.Equal(p.Data, p2.Data) || p.Msg != p2.Msg || p.Kind != p2.Kind ||
			p.Flags != p2.Flags || p.Seq != p2.Seq || p.Src != p2.Src ||
			p.Dst != p2.Dst || p.Offset != p2.Offset || p.Count != p2.Count {
			t.Fatal("round trip changed the packet")
		}
	})
}
