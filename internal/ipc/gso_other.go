//go:build !linux

package ipc

import "net"

// No segmentation offload off Linux (see gso_linux.go): the first train is
// refused and UDPTransport sends per datagram from then on.

const groOOBSize = 0

func enableGRO(*net.UDPConn) {}

func writeGSO(*net.UDPConn, []byte, int, *net.UDPAddr) error { return errNoGSO }

func gsoRefused(error) bool { return true }

func groSegSize([]byte) int { return 0 }
