//go:build linux

package ipc

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// UDP generic segmentation and receive offload (Linux 4.18 / 5.0) for
// UDPTransport's trains. The frozen syscall package predates the options.
const (
	udpSegment = 103 // UDP_SEGMENT: cmsg, uint16 segment size
	udpGRO     = 104 // UDP_GRO: sockopt; as a cmsg, int segment size
)

// groOOBSize is the control buffer a read needs for the UDP_GRO message.
var groOOBSize = syscall.CmsgSpace(4)

// enableGRO asks the kernel to deliver a coalesced train in one read.
// Best effort: without it every packet arrives on its own.
func enableGRO(conn *net.UDPConn) {
	if raw, err := conn.SyscallConn(); err == nil {
		_ = raw.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
		})
	}
}

// writeGSO sends frame to one peer in a single sendmsg, the kernel cutting
// it into datagrams of segSize bytes (the last one shorter).
func writeGSO(conn *net.UDPConn, frame []byte, segSize int, to *net.UDPAddr) error {
	var c struct { // a UDP_SEGMENT control message, padded to CmsgSpace(2)
		hdr  syscall.Cmsghdr
		size uint16
		_    [6]byte
	}
	c.hdr.Level, c.hdr.Type, c.size = syscall.IPPROTO_UDP, udpSegment, uint16(segSize)
	c.hdr.SetLen(syscall.CmsgLen(2))
	oob := unsafe.Slice((*byte)(unsafe.Pointer(&c)), syscall.CmsgSpace(2))
	ap := to.AddrPort() // the AddrPort form builds no heap sockaddr per send
	_, _, err := conn.WriteMsgUDPAddrPort(frame, oob, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	return err
}

// gsoRefused reports whether a writeGSO error says this socket, route or
// kernel cannot segment (no checksum offload, segment above the MTU, no
// UDP_SEGMENT) rather than that one send failed.
func gsoRefused(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOPROTOOPT) || errors.Is(err, syscall.EOPNOTSUPP)
}

// groSegSize returns the segment size in a read's UDP_GRO control message,
// 0 when there is none: the datagram is a single packet. The messages are
// walked in place (syscall.ParseSocketControlMessage allocates), up to
// the first UDP_GRO one or a malformed header.
func groSegSize(oob []byte) int {
	hdr := syscall.CmsgLen(0)
	for i := 0; i+hdr <= len(oob); {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[i]))
		if h.Len < syscall.SizeofCmsghdr || uint64(h.Len) > uint64(len(oob)-i) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && int(h.Len) >= hdr+4 {
			return int(int32(binary.NativeEndian.Uint32(oob[i+hdr:])))
		}
		i += syscall.CmsgSpace(int(h.Len) - hdr)
	}
	return 0
}
