// Package vproto defines the V interkernel protocol: 32-bit process
// identifiers with an embedded logical-host field (§3.1), 32-byte fixed
// messages with the segment-descriptor conventions of §2.1, and the wire
// format of interkernel packets (§3.2–§3.4). Packets ride directly on the
// data link layer ("raw" Ethernet in the paper, UDP datagrams in this
// library's real runtime); there is no transport layer — the reply message
// doubles as the acknowledgement.
package vproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Pid is a 32-bit globally unique process identifier. The high-order 16
// bits are the logical host identifier; the low-order 16 bits are a locally
// unique identifier (§3.1).
type Pid uint32

// LogicalHost is the logical host subfield of a Pid.
type LogicalHost uint16

// MakePid assembles a Pid from a logical host and a locally unique id.
func MakePid(host LogicalHost, local uint16) Pid {
	return Pid(uint32(host)<<16 | uint32(local))
}

// Host extracts the logical host identifier.
func (p Pid) Host() LogicalHost { return LogicalHost(p >> 16) }

// Local extracts the locally unique identifier.
func (p Pid) Local() uint16 { return uint16(p) }

// Nil is the invalid pid (returned by GetPid for unknown names).
const Nil Pid = 0

func (p Pid) String() string { return fmt.Sprintf("pid(%d.%d)", p.Host(), p.Local()) }

// MessageSize is the fixed size of every V message.
const MessageSize = 32

// Message is the fixed 32-byte V message. By the kernel message format
// conventions, flag bits at the start of the message declare whether the
// sender grants the recipient access to a segment of its address space, and
// the last two words give the segment's start address and length.
type Message [MessageSize]byte

// Message flag bits (stored in byte 0).
const (
	SegFlagPresent = 1 << 0 // a segment is specified
	SegFlagRead    = 1 << 1 // recipient may read the segment
	SegFlagWrite   = 1 << 2 // recipient may write the segment
)

// SetSegment declares a segment in the message: start address and size in
// the sender's address space, with the given access bits (SegFlagRead
// and/or SegFlagWrite).
func (m *Message) SetSegment(start, size uint32, access byte) {
	m[0] |= SegFlagPresent | (access & (SegFlagRead | SegFlagWrite))
	binary.BigEndian.PutUint32(m[24:28], start)
	binary.BigEndian.PutUint32(m[28:32], size)
}

// ClearSegment removes any segment declaration.
func (m *Message) ClearSegment() {
	m[0] &^= SegFlagPresent | SegFlagRead | SegFlagWrite
	binary.BigEndian.PutUint32(m[24:28], 0)
	binary.BigEndian.PutUint32(m[28:32], 0)
}

// Segment returns the declared segment, if any.
func (m *Message) Segment() (start, size uint32, access byte, ok bool) {
	if m[0]&SegFlagPresent == 0 {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(m[24:28]),
		binary.BigEndian.Uint32(m[28:32]),
		m[0] & (SegFlagRead | SegFlagWrite),
		true
}

// TraceMask bounds the trace id carried in a message (24 bits).
const TraceMask = 1<<24 - 1

// SetTrace stamps a 24-bit trace id into the message. The id lives in
// bytes 1..3 of word 0 — below the segment flag byte — which every
// sender historically left zero, so zero means "untraced" and traced
// messages are wire-compatible with nodes that have never heard of
// tracing. Replies do not inherit the id automatically: each protocol
// layer that builds a reply or fans a request out (rfs replies,
// replication pushes, invalidation callbacks) re-stamps it explicitly.
func (m *Message) SetTrace(id uint32) {
	m[1] = byte(id >> 16)
	m[2] = byte(id >> 8)
	m[3] = byte(id)
}

// Trace returns the message's 24-bit trace id (0 = untraced).
func (m *Message) Trace() uint32 {
	return uint32(m[1])<<16 | uint32(m[2])<<8 | uint32(m[3])
}

// Word returns the i'th 32-bit word of the message (0..7).
func (m *Message) Word(i int) uint32 {
	return binary.BigEndian.Uint32(m[4*i : 4*i+4])
}

// SetWord sets the i'th 32-bit word of the message (0..7). Word 0 holds the
// flag bits in its top byte; words 6 and 7 hold the segment descriptor.
func (m *Message) SetWord(i int, v uint32) {
	binary.BigEndian.PutUint32(m[4*i:4*i+4], v)
}

// Kind identifies an interkernel packet type.
type Kind uint8

// Interkernel packet kinds.
const (
	KindInvalid      Kind = iota
	KindSend              // remote Send: message (+ optional inline segment prefix)
	KindReply             // remote Reply: message (+ optional inline segment)
	KindReplyPending      // receiver got a retransmission but has not replied yet
	KindNack              // destination process does not exist
	KindMoveToData        // MoveTo data packet
	KindMoveToAck         // single ack when a MoveTo transfer completes
	KindMoveFromReq       // request to stream data back (MoveFrom)
	KindMoveFromData      // MoveFrom data packet
	KindGetPid            // broadcast logical-id lookup
	KindGetPidReply       // response to KindGetPid
)

var kindNames = [...]string{
	"invalid", "send", "reply", "reply-pending", "nack",
	"moveto-data", "moveto-ack", "movefrom-req", "movefrom-data",
	"getpid", "getpid-reply",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet flag bits.
const (
	FlagLast        = 1 << 0 // final data packet of a bulk transfer
	FlagRetransmit  = 1 << 1 // kernel-level retransmission
	FlagScopeLocal  = 1 << 2 // name-service scope bits (GetPid/SetPid)
	FlagScopeRemote = 1 << 3
	FlagOverload    = 1 << 4 // on a Nack: receiver shed the message (retryable)
	FlagStreamed    = 1 << 5 // on a Reply: it covers the MoveTo stream named by Offset; on MoveToData: a streamed Reply follows; on MoveFromData: pushed behind the Send whose seq it carries
)

// HeaderSize is the wire size of the fixed interkernel header. Every packet
// carries the header plus the 32-byte message area; bulk-data packets carry
// data after the message area.
const HeaderSize = 32

// Version is the interkernel protocol version. Version 2 changed the
// frame check from a rotate-add sum to CRC-32C, so a version-1 peer's
// frames fail as ErrBadVersion rather than as checksum mismatches.
const Version = 2

// Packet is one interkernel packet.
//
// Field use by kind:
//   - Send/Reply: Msg is the V message; Data is an optional inline segment
//     prefix (§3.4), Offset/Count describe which part of the declared
//     segment Data covers. A Reply with FlagStreamed carries no data: it
//     covers the MoveTo stream whose seq is Offset and whose size is
//     Count, sent just before it, and completes the exchange once that
//     stream has landed.
//   - MoveToData/MoveFromData: Offset is the byte offset within the
//     destination (resp. source) segment, Count the total transfer size,
//     Data the chunk. FlagLast marks the final packet, FlagStreamed the
//     packets of a stream a FlagStreamed Reply follows. A MoveFromData
//     with FlagStreamed was pushed: its sender streams the head of a
//     read-only segment right behind the Send granting it, unasked.
//     Its Seq is that Send's, Offset is from the segment's start and
//     Count the pushed span.
//   - MoveToAck: Offset is the number of contiguous bytes received; a
//     non-Last ack asks the mover to resume from Offset.
//   - MoveFromReq: Offset/Count give the requested range of the remote
//     segment.
//   - GetPid: Msg word 1 is the logical id; flags carry the scope.
//     GetPidReply: Msg word 1 logical id, word 2 the pid.
type Packet struct {
	Kind   Kind
	Flags  uint16
	Seq    uint32
	Src    Pid
	Dst    Pid
	Offset uint32
	Count  uint32
	Msg    Message
	Data   []byte
}

// WireSize returns the packet's size on the wire.
func (p *Packet) WireSize() int { return HeaderSize + MessageSize + len(p.Data) }

// MaxData is the most bulk data carried by one interkernel packet
// (a "maximally-sized packet" in §3.3, chosen to fit the experimental
// 3 Mb Ethernet's datagram limit).
const MaxData = 1024

// MaxWireSize is the size of a maximally-sized packet on the wire; every
// valid frame fits in this many bytes, so it is the natural receive-buffer
// size for transports.
const MaxWireSize = HeaderSize + MessageSize + MaxData

// Encoding errors.
var (
	ErrShortPacket = errors.New("vproto: packet too short")
	ErrBadVersion  = errors.New("vproto: bad protocol version")
	ErrBadChecksum = errors.New("vproto: checksum mismatch")
	ErrDataTooBig  = errors.New("vproto: data exceeds MaxData")
	ErrShortBuffer = errors.New("vproto: destination buffer too small")
)

// Encode serializes the packet. Layout (big-endian):
//
//	off 0  kind(1) version(1) flags(2)
//	off 4  seq(4)
//	off 8  src pid(4)
//	off 12 dst pid(4)
//	off 16 offset(4)
//	off 20 count(4)
//	off 24 datalen(2) reserved(2)
//	off 28 checksum(4): CRC-32C of bytes 0–27 and 32 onward
//	off 32 message(32)
//	off 64 data(datalen)
func (p *Packet) Encode() ([]byte, error) {
	if len(p.Data) > MaxData {
		return nil, ErrDataTooBig
	}
	buf := make([]byte, p.WireSize())
	if _, err := p.EncodeInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// EncodeInto serializes the packet into dst, which must hold at least
// WireSize bytes, and returns the number of bytes written. It performs no
// allocation, so the hot path can encode straight into pooled frames.
func (p *Packet) EncodeInto(dst []byte) (int, error) {
	if len(p.Data) > MaxData {
		return 0, ErrDataTooBig
	}
	if len(dst) < p.WireSize() {
		return 0, ErrShortBuffer
	}
	copy(dst[HeaderSize+MessageSize:], p.Data)
	return p.EncodePrefilled(dst, len(p.Data))
}

// EncodePrefilled finalizes a frame whose payload bytes are already in
// place at dst[HeaderSize+MessageSize : HeaderSize+MessageSize+dataLen]:
// it writes the header and message around them and computes the checksum
// over the whole frame. p.Data is ignored. This lets gather paths (bulk
// transfers assembling a packet from several cached blocks) copy source
// bytes exactly once — into the wire frame — with no intermediate
// staging buffer.
func (p *Packet) EncodePrefilled(dst []byte, dataLen int) (int, error) {
	if dataLen > MaxData {
		return 0, ErrDataTooBig
	}
	size := HeaderSize + MessageSize + dataLen
	if len(dst) < size {
		return 0, ErrShortBuffer
	}
	buf := dst[:size]
	buf[0] = byte(p.Kind)
	buf[1] = Version
	binary.BigEndian.PutUint16(buf[2:4], p.Flags)
	binary.BigEndian.PutUint32(buf[4:8], p.Seq)
	binary.BigEndian.PutUint32(buf[8:12], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[12:16], uint32(p.Dst))
	binary.BigEndian.PutUint32(buf[16:20], p.Offset)
	binary.BigEndian.PutUint32(buf[20:24], p.Count)
	binary.BigEndian.PutUint16(buf[24:26], uint16(dataLen))
	binary.BigEndian.PutUint16(buf[26:28], 0)
	copy(buf[HeaderSize:], p.Msg[:])
	binary.BigEndian.PutUint32(buf[28:32], checksum(buf))
	return size, nil
}

// Decode parses a packet, verifying version, length and checksum. The
// returned packet owns a private copy of the bulk data; use DecodeInto on
// the hot path to avoid the copy.
func Decode(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	if len(p.Data) > 0 {
		p.Data = append([]byte(nil), p.Data...)
	}
	return p, nil
}

// DecodeInto parses buf into p without copying bulk data: p.Data aliases
// buf's payload region. The caller must keep buf alive and unmodified for
// as long as p.Data is referenced — for pooled receive frames that means
// holding a reference (bufpool.Retain) until the last use.
func DecodeInto(p *Packet, buf []byte) error {
	if len(buf) < HeaderSize+MessageSize {
		return ErrShortPacket
	}
	if buf[1] != Version {
		return ErrBadVersion
	}
	want := binary.BigEndian.Uint32(buf[28:32])
	if checksum(buf) != want {
		return ErrBadChecksum
	}
	dataLen := int(binary.BigEndian.Uint16(buf[24:26]))
	if dataLen > MaxData {
		return ErrDataTooBig
	}
	if len(buf) < HeaderSize+MessageSize+dataLen {
		return ErrShortPacket
	}
	p.Kind = Kind(buf[0])
	p.Flags = binary.BigEndian.Uint16(buf[2:4])
	p.Seq = binary.BigEndian.Uint32(buf[4:8])
	p.Src = Pid(binary.BigEndian.Uint32(buf[8:12]))
	p.Dst = Pid(binary.BigEndian.Uint32(buf[12:16]))
	p.Offset = binary.BigEndian.Uint32(buf[16:20])
	p.Count = binary.BigEndian.Uint32(buf[20:24])
	copy(p.Msg[:], buf[HeaderSize:HeaderSize+MessageSize])
	if dataLen > 0 {
		p.Data = buf[HeaderSize+MessageSize : HeaderSize+MessageSize+dataLen]
	} else {
		p.Data = nil
	}
	return nil
}

// WireLen returns the length of the packet at the head of buf as its
// header claims, at most len(buf), without checking it: how packets laid
// back to back (a coalesced train) are told apart, each then decoded.
func WireLen(buf []byte) int {
	if len(buf) < HeaderSize {
		return len(buf)
	}
	return min(len(buf), HeaderSize+MessageSize+int(binary.BigEndian.Uint16(buf[24:26])))
}

// Continues reports whether the encoded packet at the head of next
// continues prev's stream in a train: same kind, flags but FlagLast, seq,
// pids, Count and message. It reads the two headers only; next is still
// to be decoded, and its checksum checked.
func Continues(prev, next []byte) bool {
	const h = HeaderSize + MessageSize
	return len(prev) >= h && len(next) >= h && prev[0] == next[0] && prev[2] == next[2] &&
		(prev[3]^next[3])&^FlagLast == 0 && string(prev[4:16]) == string(next[4:16]) &&
		string(prev[20:24]) == string(next[20:24]) && string(prev[HeaderSize:h]) == string(next[HeaderSize:h])
}

// checksum is the CRC-32C (Castagnoli) of the packet minus the checksum
// field itself: the 28 header bytes before it, then everything after it.
// It lets transports and tests detect corruption — CRC-32C catches every
// burst of up to 32 bits and every odd number of flipped bits — and the
// standard library computes it with the CPU's CRC instructions where
// there are any (amd64, arm64), which matters because every datagram is
// summed twice (encode and decode) on the hot path.
func checksum(buf []byte) uint32 {
	sum := crc32.Update(0, castagnoli, buf[:min(28, len(buf))])
	if len(buf) > 32 {
		sum = crc32.Update(sum, castagnoli, buf[32:])
	}
	return sum
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)
