package vproto

import (
	"bytes"
	"fmt"
	"testing"
)

func samplePacket() *Packet {
	p := &Packet{
		Kind:   KindReply,
		Flags:  FlagLast,
		Seq:    0xDEADBEEF,
		Src:    MakePid(7, 8),
		Dst:    MakePid(9, 10),
		Offset: 1234,
		Count:  512,
		Data:   bytes.Repeat([]byte{0xC3}, 512),
	}
	p.Msg.SetWord(1, 77)
	p.Msg.SetSegment(0, 512, SegFlagWrite)
	return p
}

// TestEncodeIntoMatchesEncode: the allocation-free encoder must produce
// byte-identical frames to the allocating one.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	p := samplePacket()
	want, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, MaxWireSize)
	n, err := p.EncodeInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:n], want) {
		t.Fatal("EncodeInto produced a different frame than Encode")
	}
}

// TestEncodeIntoReusedDirtyBuffer: encoding into a previously used frame
// must fully overwrite the wire image (including the reserved bytes).
func TestEncodeIntoReusedDirtyBuffer(t *testing.T) {
	p := samplePacket()
	want, _ := p.Encode()
	dst := bytes.Repeat([]byte{0xFF}, MaxWireSize)
	n, err := p.EncodeInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:n], want) {
		t.Fatal("dirty reused buffer leaked into the encoded frame")
	}
	if _, err := Decode(dst[:n]); err != nil {
		t.Fatalf("frame encoded into dirty buffer does not decode: %v", err)
	}
}

func TestEncodeIntoShortBuffer(t *testing.T) {
	p := samplePacket()
	if _, err := p.EncodeInto(make([]byte, p.WireSize()-1)); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	if _, err := (&Packet{Data: make([]byte, MaxData+1)}).EncodeInto(make([]byte, 4096)); err != ErrDataTooBig {
		t.Fatalf("err = %v, want ErrDataTooBig", err)
	}
}

// TestEncodePrefilled: payload placed in the frame first, header written
// around it — must equal the ordinary encoding of the same packet.
func TestEncodePrefilled(t *testing.T) {
	p := samplePacket()
	want, _ := p.Encode()
	dst := make([]byte, MaxWireSize)
	// Gather the payload from two separate sources, as a bulk-transfer
	// packet assembled from cache blocks does.
	copy(dst[HeaderSize+MessageSize:], p.Data[:100])
	copy(dst[HeaderSize+MessageSize+100:], p.Data[100:])
	hdr := *p
	hdr.Data = nil
	n, err := hdr.EncodePrefilled(dst, len(p.Data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:n], want) {
		t.Fatal("EncodePrefilled frame differs from Encode")
	}
}

// TestDecodeIntoAliases: DecodeInto must not copy the payload — its Data
// aliases the input frame.
func TestDecodeIntoAliases(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Encode()
	var q Packet
	if err := DecodeInto(&q, buf); err != nil {
		t.Fatal(err)
	}
	if len(q.Data) != len(p.Data) {
		t.Fatalf("data len = %d, want %d", len(q.Data), len(p.Data))
	}
	buf[HeaderSize+MessageSize] ^= 0xFF
	if q.Data[0] == p.Data[0] {
		t.Fatal("DecodeInto copied the payload; it must alias the frame")
	}
}

func TestDecodeRejectsOversizedDataLen(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Encode()
	// Declare more data than MaxData and fix the checksum so only the
	// length check can reject it.
	grown := append(buf, make([]byte, 2048)...)
	const bigLen = MaxData + 512
	grown[24] = byte(bigLen >> 8)
	grown[25] = byte(bigLen & 0xFF)
	grown[28], grown[29], grown[30], grown[31] = 0, 0, 0, 0
	sum := checksum(grown)
	grown[28] = byte(sum >> 24)
	grown[29] = byte(sum >> 16)
	grown[30] = byte(sum >> 8)
	grown[31] = byte(sum)
	if _, err := Decode(grown); err != ErrDataTooBig {
		t.Fatalf("err = %v, want ErrDataTooBig", err)
	}
}

// BenchmarkSealOpen is one frame's codec cost on the hot path: EncodeInto
// then DecodeInto, so the frame check is computed twice, as it is for
// every datagram that crosses the wire. It must not allocate.
func BenchmarkSealOpen(b *testing.B) {
	for _, n := range []int{0, 512, MaxData} {
		b.Run(fmt.Sprintf("data=%d", n), func(b *testing.B) {
			p := samplePacket()
			p.Data = bytes.Repeat([]byte{0xC3}, n)
			frame := make([]byte, MaxWireSize)
			var q Packet
			b.SetBytes(int64(p.WireSize()))
			b.ReportAllocs()
			for b.Loop() {
				k, err := p.EncodeInto(frame)
				if err != nil {
					b.Fatal(err)
				}
				if err := DecodeInto(&q, frame[:k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
