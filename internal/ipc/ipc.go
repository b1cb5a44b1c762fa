// Package ipc is a real, runnable user-space implementation of the
// distributed V kernel's interprocess communication for Go programs:
// processes are goroutines, a Node plays the role of one workstation's
// kernel, and nodes exchange the same interkernel packets
// (vkernel/internal/vproto) as the paper's kernels — over UDP sockets or
// an in-memory transport with fault injection.
//
// The protocol machinery matches §3.2–§3.4 of the paper: synchronous
// Send/Receive/Reply with 32-byte messages; reliable exchanges built
// directly on unreliable datagrams with the reply as the acknowledgement;
// alien descriptors for duplicate filtering and reply caching;
// reply-pending packets; negative acknowledgements; segment grants with
// inline prefixes (ReceiveWithSegment / ReplyWithSegment); and MoveTo /
// MoveFrom bulk transfer with a single completion acknowledgement and
// resume-from-last-received retransmission, spared by a read-only
// segment's push right behind its Send, which heads the push's first
// train frame (pushMax).
package ipc

import (
	"errors"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// Protocol types shared with the simulation.
type (
	// Pid is a 32-bit process identifier; the high 16 bits name the node.
	Pid = vproto.Pid
	// LogicalHost identifies a node.
	LogicalHost = vproto.LogicalHost
	// Message is the fixed 32-byte V message.
	Message = vproto.Message
)

// Segment access bits, re-exported for callers.
const (
	SegRead  = vproto.SegFlagRead
	SegWrite = vproto.SegFlagWrite
)

// Segment is the memory a sender grants to the receiver of a message for
// the duration of the exchange (§2.1). Data is aliased, not copied: the
// receiver's MoveTo writes land in it directly, as they do between address
// spaces in the kernel.
type Segment struct {
	Data   []byte
	Access byte // SegRead and/or SegWrite
}

// Errors returned by IPC operations.
var (
	ErrNoProcess        = errors.New("ipc: no such process")
	ErrTimeout          = errors.New("ipc: retransmission limit exceeded")
	ErrNotAwaitingReply = errors.New("ipc: process not awaiting reply from replier")
	ErrBadAddress       = errors.New("ipc: range outside granted segment")
	ErrNoAccess         = errors.New("ipc: segment access not granted")
	ErrClosed           = errors.New("ipc: node closed")
	ErrNameUnknown      = errors.New("ipc: logical name not resolved")
	ErrPidsExhausted    = errors.New("ipc: all local process ids in use")
	// ErrOverloaded reports that the receiver shed the message because its
	// FCFS receive queue was full (backpressure Nack). The exchange was
	// never delivered; the operation is safe to retry after backoff.
	ErrOverloaded = errors.New("ipc: receiver overloaded (retryable)")
)

// Scope selects name-service visibility (§2.1).
type Scope int

// Name-service scopes.
const (
	ScopeLocal Scope = 1 << iota
	ScopeRemote
	ScopeBoth Scope = ScopeLocal | ScopeRemote
)

// NodeConfig tunes a node; the zero value gets defaults.
type NodeConfig struct {
	// Metrics is the observability registry the node registers its
	// ipc.* counters, gauges and histograms in. Nil gets the node a
	// private registry (reachable via Node.Metrics), so counting always
	// works; share one registry between the transport, the node and any
	// embedded server to scrape them as a unit. Latency histograms are
	// recorded only while the registry has timing enabled.
	Metrics *obs.Registry
	// RetransmitTimeout is the kernel-level retransmission period (§3.2):
	// every unanswered packet is resent once per period.
	RetransmitTimeout time.Duration
	// Retries bounds retransmissions before a Send fails (§3.2's N).
	Retries int
	// AlienDescriptors bounds the remote-sender descriptor pool.
	AlienDescriptors int
	// ChunkSize bounds bulk-transfer data packets.
	ChunkSize int
	// GetPidTimeout bounds one broadcast name-lookup round.
	GetPidTimeout time.Duration
	// GetPidRetries bounds lookup rounds.
	GetPidRetries int
	// ReceiveQueueDepth bounds each process's FCFS receive queue; a
	// message handed to a blocked receiver does not count. A Send to a
	// process whose queue is full is shed: remote senders get a Nack
	// carrying the overload flag (their Send fails with ErrOverloaded,
	// retryable), local senders get ErrOverloaded directly. 0 selects the
	// generous default (1024); negative disables the bound. Individual
	// processes can override with Proc.SetQueueLimit.
	ReceiveQueueDepth int
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 50 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 5
	}
	if c.AlienDescriptors == 0 {
		c.AlienDescriptors = 256
	}
	if c.ChunkSize <= 0 || c.ChunkSize > vproto.MaxData {
		c.ChunkSize = vproto.MaxData
	}
	if c.GetPidTimeout == 0 {
		c.GetPidTimeout = 100 * time.Millisecond
	}
	if c.GetPidRetries == 0 {
		c.GetPidRetries = 3
	}
	switch {
	case c.ReceiveQueueDepth < 0:
		c.ReceiveQueueDepth = 0 // unbounded
	case c.ReceiveQueueDepth == 0:
		c.ReceiveQueueDepth = 1024
	}
	return c
}

// Transport moves encoded interkernel packets between nodes. Delivery may
// drop, duplicate or reorder packets; the protocol recovers.
//
// Ordering, per protocol half (see queued). Move packets: a transport
// adds no reordering of its own within a flow; those of one (src pid, dst
// pid) pair reach the handler one at a time, in network order, though the
// handler runs on several workers at once (see dispatcher). A §3.3 train
// is one flow, and the go-back-N receivers need it in order. Exchange
// packets may be handled where they are read, concurrently with queued or
// running moves of their flow (UDPTransport does; MemNetwork, which
// delivers on the sender's goroutine, queues them too). The protocol is
// causal: a peer sends a flow's exchange packet only after seeing every
// earlier move of it complete, which this node's workers had to finish
// first — but for a streamed reply (vproto.FlagStreamed), sent right
// behind its train and held, not waited for, until the train lands. So
// an exchange packet overtakes only duplicates, which seq filtering
// drops, or a held reply's train, and the Send's barrier fences a move
// handler still running before a Reply or Nack delivers. This rests on
// one invariant: no exchange handler waits on network progress. Its only
// wait is that barrier, bounded by one train send on a worker. A Send's
// push (pushMax) is move packets of its flow sent right behind it, so
// handled after it; a pushed packet that overtakes its Send is dropped.
// The Send may share the push's first train frame (SendTrain): a
// receiving transport handles it before that frame's moves, on the read
// loop as any exchange packet, and only then hands them to their worker.
//
// Buffer ownership: Send and Broadcast (and the optional SendTrain, see
// TrainSender) borrow pkt only for the duration of the call — the caller
// may recycle it as soon as they return. On the receive side the
// transport owns each frame: it holds one reference across the handler
// upcall and releases it when the handler returns, so a handler that
// needs frame bytes past its return (zero-copy dispatch) must Retain the
// frame and Release it at last use. A worker's upcall may instead carry
// one flow's move packets back to back, each as long as its header says,
// in a view with no references: they are lent and never retained (the
// move handlers keep nothing). Exchange packets get frames of their own.
type Transport interface {
	// Send transmits to one node, best effort.
	Send(to LogicalHost, pkt []byte) error
	// Broadcast transmits to all nodes, best effort.
	Broadcast(pkt []byte) error
	// SetHandler installs the receive upcall. The transport may call it
	// concurrently, for one flow only as the ordering rules above allow;
	// the node handles its own locking. The frame is valid for the
	// duration of the call unless retained.
	SetHandler(h func(frame *bufpool.Buf))
	// Close releases transport resources.
	Close() error
}

// TrainSender is an optional Transport capability for §3.3 packet trains
// (resolved once in NewNode). frame holds two or more encoded packets
// back to back, each segSize bytes long except a possibly shorter last
// one, all for one host; SendTrain puts each on the wire as its own
// datagram, in order, in a single kernel crossing — all of them or, with
// an error, none, and the node then sends them one by one. frame is
// borrowed for the duration of the call exactly as Send borrows pkt: the
// mover owns it and recycles it the moment SendTrain returns. It never
// exceeds trainMaxSegs segments or trainMaxBytes bytes.
type TrainSender interface {
	SendTrain(to LogicalHost, frame []byte, segSize int) error
}

// What one UDP send can carry: UDP_MAX_SEGMENTS of the oldest kernel with
// UDP_SEGMENT, and the largest UDP payload.
const (
	trainMaxSegs  = 64
	trainMaxBytes = 65507
)
