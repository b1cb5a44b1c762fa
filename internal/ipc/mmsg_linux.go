//go:build linux && (amd64 || 386 || arm || arm64 || riscv64 || loong64)

// Linux fast path for BatchedUDPTransport: recvmmsg/sendmmsg vectors
// over SO_REUSEPORT-sharded sockets, raw syscalls driven through the
// runtime netpoller via syscall.RawConn so blocking still parks the
// goroutine instead of a thread. Stdlib only — SO_REUSEPORT and the
// mmsghdr layout are declared here because the frozen syscall package
// predates them.
//
// The vectors and syscall callbacks are built once per socket and
// reused: a batch of one (the sparse-traffic common case) must not cost
// more than the plain transport's per-datagram path, so the steady
// state re-initializes only the header slots the previous call
// consumed and allocates nothing.

package ipc

import (
	"context"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

const batchingAvailable = true

// soReusePort is SO_REUSEPORT, absent from the frozen syscall package.
const soReusePort = 0xf

// reusePortControl marks a socket SO_REUSEPORT before bind, so several
// sockets can share one port with the kernel hashing inbound flows
// across them.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// listenBatch binds shards sockets to the same address; the first bind
// resolves ":0" and the rest pin its concrete port.
func listenBatch(listen string, shards int) ([]*net.UDPConn, error) {
	lc := net.ListenConfig{Control: reusePortControl}
	conns := make([]*net.UDPConn, 0, shards)
	addr := listen
	for i := 0; i < shards; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("ipc: listen %q shard %d: %w", listen, i, err)
		}
		conn := pc.(*net.UDPConn)
		conns = append(conns, conn)
		if i == 0 {
			addr = conn.LocalAddr().String()
		}
	}
	return conns, nil
}

// dialHot opens a connected socket to one peer, SO_REUSEPORT-bound to
// the transport's local address so the peer keeps seeing the shared
// source port. The connected 4-tuple outranks the reuseport group in
// the kernel's socket lookup, so the peer's inbound flow steers here.
func dialHot(local, peer *net.UDPAddr) (*net.UDPConn, error) {
	d := net.Dialer{LocalAddr: local, Control: reusePortControl}
	c, err := d.Dial("udp", peer.String())
	if err != nil {
		return nil, err
	}
	return c.(*net.UDPConn), nil
}

// mmsghdr mirrors the kernel's struct mmsghdr. Go inserts the same
// trailing padding after msgLen that C does (Msghdr is pointer-aligned),
// so the vector stride matches the kernel's on every Linux arch.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
}

// mmsgState holds one socket's reusable syscall vectors and callbacks,
// sized and wired once so the steady state allocates nothing. Only the
// rx loop touches the r* state and only the egress flusher (serialized
// by batchSock.flushing) touches the w* state. On a connected socket
// the kernel already knows both endpoints, so no sockaddr slots are
// exchanged at all (connected == true).
type mmsgState struct {
	raw       syscall.RawConn
	connected bool

	riovs    []syscall.Iovec
	rhdrs    []mmsghdr
	rnames   []syscall.RawSockaddrInet6
	rDirty   int // header slots consumed by the previous call, to re-arm
	rN       int
	rGot     int
	rErrno   syscall.Errno
	readCB   func(fd uintptr) bool
	lastName syscall.RawSockaddrInet6 // last sender, to skip repeated learns

	wiovs   []syscall.Iovec
	whdrs   []mmsghdr
	wnames  []syscall.RawSockaddrInet6
	wOff    int
	wCnt    int
	wDone   int
	wErrno  syscall.Errno
	writeCB func(fd uintptr) bool
}

func (st *mmsgState) init(conn *net.UDPConn, batch int, connected bool) {
	st.raw, _ = conn.SyscallConn()
	st.connected = connected
	st.riovs = make([]syscall.Iovec, batch)
	st.rhdrs = make([]mmsghdr, batch)
	st.rnames = make([]syscall.RawSockaddrInet6, batch)
	st.wiovs = make([]syscall.Iovec, batch)
	st.whdrs = make([]mmsghdr, batch)
	st.wnames = make([]syscall.RawSockaddrInet6, batch)
	for i := 0; i < batch; i++ {
		st.rhdrs[i].hdr = syscall.Msghdr{Iov: &st.riovs[i], Iovlen: 1}
		st.whdrs[i].hdr = syscall.Msghdr{Iov: &st.wiovs[i], Iovlen: 1}
		if !connected {
			st.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&st.rnames[i]))
			st.rhdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(st.rnames[i]))
			st.whdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&st.wnames[i]))
		}
	}
	st.rDirty = batch
	// The callbacks close over st alone and are reused for every kernel
	// crossing; per-call inputs and results travel through st fields.
	st.readCB = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&st.rhdrs[0])), uintptr(st.rN), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // park on the netpoller until readable
		}
		st.rErrno = errno
		st.rGot = int(r)
		if errno != 0 {
			st.rGot = 0
		}
		return true
	}
	st.writeCB = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&st.whdrs[st.wOff])), uintptr(st.wCnt), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		st.wErrno = errno
		st.wDone = int(r)
		if errno != 0 {
			st.wDone = 0
		}
		return true
	}
}

// readBatch pulls up to len(scratch) datagrams in one recvmmsg crossing
// into the caller's scratch slabs, recording each datagram's length in
// lens and learning senders. Slots beyond the returned count are
// untouched, and their header slots are still armed from the previous
// call.
func (s *batchSock) readBatch(scratch [][]byte, lens []int, peers *peerTable) (int, error) {
	st := &s.mm
	if st.raw == nil {
		return s.readOne(scratch, lens, peers)
	}
	for i := 0; i < st.rDirty; i++ {
		st.riovs[i].Base = &scratch[i][0]
		st.riovs[i].SetLen(len(scratch[i]))
		if !st.connected {
			// The kernel rewrote Namelen on fill; re-arm the full size.
			st.rhdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(st.rnames[i]))
		}
	}
	st.rN = len(scratch)
	st.rErrno = 0
	if err := st.raw.Read(st.readCB); err != nil {
		return 0, err // socket closed
	}
	if st.rErrno != 0 {
		return 0, st.rErrno
	}
	got := st.rGot
	st.rDirty = got
	for i := 0; i < got; i++ {
		lens[i] = int(st.rhdrs[i].msgLen)
		// Consecutive datagrams overwhelmingly share a sender; converting
		// and learning only when the raw sockaddr changes keeps the hot
		// path allocation-free. (A transport address carries one logical
		// host, so skipping a repeat sender never skips a new peer.)
		if !st.connected && !sameRawName(&st.rnames[i], &st.lastName) {
			st.lastName = st.rnames[i]
			if from := rawToUDPAddr(&st.rnames[i]); from != nil {
				peers.learn(scratch[i][:lens[i]], from.AddrPort())
			}
		}
	}
	return got, nil
}

// writeBatch pushes the vector out in as few sendmmsg crossings as the
// kernel allows. Best effort, like any datagram transmit: a failing
// head datagram (say ECONNREFUSED bounced back on a connected socket)
// is skipped so it cannot wedge the rest of the batch, and a closed
// socket abandons the remainder — the protocol's retransmission
// machinery recovers either way.
func (s *batchSock) writeBatch(msgs []txMsg) {
	st := &s.mm
	if st.raw == nil {
		for _, m := range msgs {
			_ = s.writeOne(m.frame.Data, m.addr)
		}
		return
	}
	n := len(msgs)
	for i, m := range msgs {
		st.wiovs[i].Base = &m.frame.Data[0]
		st.wiovs[i].SetLen(len(m.frame.Data))
		if !st.connected {
			if m.addr != nil {
				st.whdrs[i].hdr.Namelen = putRawSockaddr(&st.wnames[i], m.addr)
			} else {
				st.whdrs[i].hdr.Namelen = 0 // no destination: the kernel rejects it
			}
		}
	}
	sent := 0
	for sent < n {
		st.wOff, st.wCnt, st.wErrno = sent, n-sent, 0
		if err := st.raw.Write(st.writeCB); err != nil {
			return
		}
		if st.wErrno != 0 || st.wDone == 0 {
			sent++ // skip the datagram the kernel refused
			continue
		}
		sent += st.wDone
	}
}

// sameRawName reports whether two raw sockaddrs name the same endpoint,
// comparing only the bytes their family defines.
func sameRawName(a, b *syscall.RawSockaddrInet6) bool {
	if a.Family != b.Family {
		return false
	}
	switch a.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(a))
		sb := (*syscall.RawSockaddrInet4)(unsafe.Pointer(b))
		return sa.Port == sb.Port && sa.Addr == sb.Addr
	case syscall.AF_INET6:
		return a.Port == b.Port && a.Addr == b.Addr
	}
	return false
}

// rawToUDPAddr converts a filled sockaddr slot to a net.UDPAddr,
// byte-wise on the port so it is endianness-correct everywhere.
func rawToUDPAddr(rsa *syscall.RawSockaddrInet6) *net.UDPAddr {
	switch rsa.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		ip := make(net.IP, 4)
		copy(ip, sa.Addr[:])
		return &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		ip := make(net.IP, 16)
		copy(ip, rsa.Addr[:])
		return &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
	}
	return nil
}

// putRawSockaddr fills a sockaddr slot from a net.UDPAddr and returns
// the length the kernel expects for its family. (Zones are not carried:
// peers here are addressed numerically, not via link-local scopes.)
func putRawSockaddr(dst *syscall.RawSockaddrInet6, a *net.UDPAddr) uint32 {
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(a.Port>>8), byte(a.Port)
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4
	}
	*dst = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&dst.Port))
	p[0], p[1] = byte(a.Port>>8), byte(a.Port)
	copy(dst.Addr[:], a.IP.To16())
	return syscall.SizeofSockaddrInet6
}
