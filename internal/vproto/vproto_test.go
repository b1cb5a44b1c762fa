package vproto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPidFields(t *testing.T) {
	p := MakePid(0x1234, 0x5678)
	if p != Pid(0x12345678) {
		t.Fatalf("MakePid = %#x", uint32(p))
	}
	if p.Host() != 0x1234 || p.Local() != 0x5678 {
		t.Fatalf("fields = %#x %#x", p.Host(), p.Local())
	}
}

func TestPidRoundTripProperty(t *testing.T) {
	f := func(host uint16, local uint16) bool {
		p := MakePid(LogicalHost(host), local)
		return p.Host() == LogicalHost(host) && p.Local() == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSegment(t *testing.T) {
	var m Message
	if _, _, _, ok := m.Segment(); ok {
		t.Fatal("zero message claims a segment")
	}
	m.SetSegment(0x1000, 512, SegFlagRead)
	start, size, access, ok := m.Segment()
	if !ok || start != 0x1000 || size != 512 || access != SegFlagRead {
		t.Fatalf("segment = %v %v %v %v", start, size, access, ok)
	}
	m.ClearSegment()
	if _, _, _, ok := m.Segment(); ok {
		t.Fatal("segment survived ClearSegment")
	}
}

func TestMessageTrace(t *testing.T) {
	var m Message
	if m.Trace() != 0 {
		t.Fatal("zero message claims a trace id")
	}
	// The trace id coexists with segment flags (byte 0) and survives a
	// full round trip; ids are truncated to 24 bits.
	m.SetSegment(0x1000, 512, SegFlagRead)
	m.SetTrace(0xabcdef)
	if m.Trace() != 0xabcdef {
		t.Fatalf("trace = %#x, want 0xabcdef", m.Trace())
	}
	start, size, access, ok := m.Segment()
	if !ok || start != 0x1000 || size != 512 || access != SegFlagRead {
		t.Fatalf("segment clobbered by SetTrace: %v %v %v %v", start, size, access, ok)
	}
	m.SetTrace(0xff000001)
	if m.Trace() != 0x000001 {
		t.Fatalf("trace not truncated to 24 bits: %#x", m.Trace())
	}
	m.SetTrace(0)
	if m.Trace() != 0 {
		t.Fatal("trace id not clearable")
	}
}

func TestMessageWords(t *testing.T) {
	var m Message
	for i := 0; i < 8; i++ {
		m.SetWord(i, uint32(i*7+1))
	}
	for i := 0; i < 8; i++ {
		if m.Word(i) != uint32(i*7+1) {
			t.Fatalf("word %d = %d", i, m.Word(i))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var msg Message
	msg.SetWord(1, 42)
	msg.SetSegment(4096, 512, SegFlagRead|SegFlagWrite)
	in := &Packet{
		Kind:   KindSend,
		Flags:  FlagLast | FlagRetransmit,
		Seq:    7,
		Src:    MakePid(1, 2),
		Dst:    MakePid(3, 4),
		Offset: 100,
		Count:  512,
		Msg:    msg,
		Data:   []byte("hello segment data"),
	}
	buf, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != in.WireSize() {
		t.Fatalf("wire size %d != %d", len(buf), in.WireSize())
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Flags != in.Flags || out.Seq != in.Seq ||
		out.Src != in.Src || out.Dst != in.Dst || out.Offset != in.Offset ||
		out.Count != in.Count || out.Msg != in.Msg || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); err != ErrShortPacket {
		t.Fatalf("short: %v", err)
	}
	p := &Packet{Kind: KindReply}
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf...)
	bad[1] = 99
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	// A version-1 frame (rotate-add sum) is refused by its version byte
	// before any check is computed.
	bad = append([]byte(nil), buf...)
	bad[1] = 1
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("version 1: %v", err)
	}
	bad = append([]byte(nil), buf...)
	bad[40] ^= 0xFF // flip a message byte
	if _, err := Decode(bad); err != ErrBadChecksum {
		t.Fatalf("checksum: %v", err)
	}
	if _, err := (&Packet{Data: make([]byte, MaxData+1)}).Encode(); err != ErrDataTooBig {
		t.Fatalf("too big: %v", err)
	}
	// Truncated data region.
	p = &Packet{Kind: KindMoveToData, Data: make([]byte, 100)}
	buf, err = p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The checksum check fires first on truncation only if length bytes
	// survive; force the declared length beyond the buffer.
	if _, err := Decode(buf[:HeaderSize+MessageSize]); err == nil {
		t.Fatal("truncated packet decoded")
	}
}

// Property: Encode/Decode round-trips arbitrary packets.
func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(kind uint8, flags uint16, seq, src, dst, off, count uint32, msgSeed int64, dataLen uint16) bool {
		var msg Message
		r := rand.New(rand.NewSource(msgSeed))
		r.Read(msg[:])
		data := make([]byte, int(dataLen)%MaxData)
		rng.Read(data)
		in := &Packet{
			Kind: Kind(kind % 11), Flags: flags, Seq: seq,
			Src: Pid(src), Dst: Pid(dst), Offset: off, Count: count,
			Msg: msg, Data: data,
		}
		buf, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(buf)
		if err != nil {
			return false
		}
		return out.Kind == in.Kind && out.Flags == in.Flags && out.Seq == in.Seq &&
			out.Src == in.Src && out.Dst == in.Dst && out.Offset == in.Offset &&
			out.Count == in.Count && out.Msg == in.Msg && bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption outside the checksum field is
// detected, and so is every burst of up to 32 bits (CRC-32C's
// guarantee) anywhere in a maximal MoveToData frame.
func TestChecksumDetectsCorruptionProperty(t *testing.T) {
	p := &Packet{Kind: KindSend, Seq: 9, Src: MakePid(1, 1), Dst: MakePid(2, 2), Data: []byte("payload bytes")}
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, flip uint8) bool {
		i := int(pos) % len(buf)
		if i >= 28 && i < 32 {
			return true // corrupting the checksum itself: Decode may or may not fail; skip
		}
		if flip == 0 {
			return true
		}
		bad := append([]byte(nil), buf...)
		bad[i] ^= flip
		if i == 1 { // version byte: may decode as bad version instead
			_, err := Decode(bad)
			return err != nil
		}
		_, err := Decode(bad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	// Every start bit and every length from 1 to 32, one random pattern
	// each with both end bits set (so its length is exact). Bursts are
	// laid over the checked bytes, which skip the checksum field.
	rng := rand.New(rand.NewSource(7))
	big := &Packet{Kind: KindMoveToData, Flags: FlagLast, Seq: 3, Src: MakePid(1, 1),
		Dst: MakePid(2, 2), Offset: 4096, Count: 65536, Data: make([]byte, MaxData)}
	rng.Read(big.Data)
	frame, err := big.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checked := func(bit int) (byteAt int, mask byte) {
		i := bit / 8
		if i >= 28 {
			i += 4
		}
		return i, 0x80 >> (bit % 8)
	}
	var q Packet
	for length := 1; length <= 32; length++ {
		for start := 0; start+length <= (len(frame)-4)*8; start++ {
			pattern := rng.Uint32() | 1 | 1<<(length-1)
			for k := 0; k < length; k++ {
				if pattern>>k&1 != 0 {
					i, m := checked(start + k)
					frame[i] ^= m
				}
			}
			if DecodeInto(&q, frame) == nil {
				t.Fatalf("burst of %d bits at bit %d (pattern %#x) not detected", length, start, pattern)
			}
			for k := 0; k < length; k++ {
				if pattern>>k&1 != 0 {
					i, m := checked(start + k)
					frame[i] ^= m
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSend.String() != "send" || KindMoveToAck.String() != "moveto-ack" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
}

// TestWireLenAndContinues: packets laid back to back are told apart by
// the length their headers claim, and a packet continues its
// predecessor's stream exactly when all it shares with it but its offset,
// data and FlagLast agree.
func TestWireLenAndContinues(t *testing.T) {
	first := Packet{Kind: KindMoveToData, Flags: FlagStreamed, Seq: 9, Src: MakePid(1, 1), Dst: MakePid(2, 3), Count: 300, Data: make([]byte, 200)}
	first.Msg.SetWord(2, 77)
	a, _ := first.Encode()
	next := first
	next.Offset, next.Data, next.Flags = 200, make([]byte, 100), FlagStreamed|FlagLast
	b, _ := next.Encode()
	train := append(append([]byte(nil), a...), b...)
	if got := WireLen(train); got != len(a) {
		t.Fatalf("WireLen of a train = %d, want its first packet's %d", got, len(a))
	}
	if got := WireLen(train[len(a):]); got != len(b) {
		t.Fatalf("WireLen of the last packet = %d, want %d", got, len(b))
	}
	if got := WireLen(a[:40]); got != 40 {
		t.Fatalf("WireLen of a truncated packet = %d, want the 40 bytes there are", got)
	}
	if got := WireLen(a[:10]); got != 10 {
		t.Fatalf("WireLen of a runt = %d, want 10", got)
	}
	if !Continues(a, b) {
		t.Fatal("the stream's next packet does not continue it")
	}
	for name, edit := range map[string]func(p *Packet){
		"kind":    func(p *Packet) { p.Kind = KindMoveFromData },
		"flags":   func(p *Packet) { p.Flags &^= FlagStreamed },
		"seq":     func(p *Packet) { p.Seq++ },
		"src":     func(p *Packet) { p.Src++ },
		"dst":     func(p *Packet) { p.Dst++ },
		"count":   func(p *Packet) { p.Count++ },
		"message": func(p *Packet) { p.Msg.SetWord(1, 1) },
	} {
		other := next
		edit(&other)
		c, _ := other.Encode()
		if Continues(a, c) {
			t.Errorf("a packet of another %s continues the stream", name)
		}
	}
	if Continues(a, b[:HeaderSize+MessageSize-1]) || Continues(nil, b) {
		t.Error("a runt continues the stream")
	}
}
