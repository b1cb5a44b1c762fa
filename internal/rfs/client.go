package rfs

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/vproto"
)

// RetryPolicy tunes the client stubs' reaction to ipc.ErrOverloaded —
// the kernel's receive-queue backpressure Nack, which promises the
// exchange never executed and is safe to retry. Retries back off
// exponentially (Delay, 2·Delay, 4·Delay … capped at MaxDelay), each
// sleep jittered over the upper half of its nominal value so a herd of
// shedding clients — sixteen of them rerouting off one dead primary —
// thins out instead of retrying in lockstep.
type RetryPolicy struct {
	// Retries bounds the retry attempts after the first Send; 0 turns
	// the policy off (ErrOverloaded surfaces to the caller immediately).
	Retries int
	// Delay is the first backoff sleep.
	Delay time.Duration
	// MaxDelay caps the doubling.
	MaxDelay time.Duration
	// Reroutes bounds failover attempts for a routed client: how many
	// times one operation may drop its cached route and re-resolve after
	// ipc.ErrTimeout, ipc.ErrNoProcess or a StatusNoVolume reply (the
	// volume moved, or its server died and restarted). 0 turns failover
	// off; unrouted (fixed-pid) clients ignore it.
	Reroutes int
}

// jitter spreads one backoff sleep over [d/2, d]. The attempt counts,
// doubling and cap stay deterministic — only the slept duration varies —
// and the sleep hook still receives the final value, so tests that
// substitute a recording no-op remain schedule-deterministic.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// DefaultRetryPolicy is the stubs' out-of-the-box overload behavior:
// enough patience to ride out transient queue spikes without hiding a
// persistently saturated server.
var DefaultRetryPolicy = RetryPolicy{Retries: 8, Delay: 200 * time.Microsecond, MaxDelay: 10 * time.Millisecond, Reroutes: 2}

// Client provides the stub routines a diskless workstation's programs use
// for remote file access (§3.4): each call is one V message exchange with
// the segment grants the I/O protocol prescribes. A Client wraps one V
// process and is not safe for concurrent use — give each concurrent
// client its own process and Client (as the kernel does).
//
// A client is bound to one volume. The plain constructors fix the server
// pid (and DefaultVolume, matching the pre-sharding protocol);
// NewVolumeClient instead resolves the serving pid through a Router per
// operation, which is what makes a volume's clients survive the volume
// moving to another server.
type Client struct {
	p      *ipc.Proc
	server ipc.Pid
	vol    uint32
	router *Router
	// lastPid is the server the previous routed op used; a change means
	// the volume moved and fires onReroute.
	lastPid ipc.Pid
	// onReroute, when set (CachingClient), observes server changes so
	// layered state bound to the old server (cache contents, cache
	// registrations, version baselines) can be discarded.
	onReroute func(ipc.Pid)
	retry     RetryPolicy
	// trace, when nonzero, stamps every outgoing request with a 24-bit
	// trace id (SetTrace): the server records spans for the request and
	// everything it fans out (flushes, replication pushes, invalidation
	// callbacks) under that id.
	trace uint32
	// sleep is the backoff hook; tests substitute a recording no-op so
	// retry schedules stay deterministic and instantaneous.
	sleep func(time.Duration)
	// scratch is the reusable segment descriptor for the I/O stubs: a
	// Client is single-threaded with at most one exchange in flight, so
	// one descriptor serves every op without a per-call allocation (the
	// pointer escapes into the kernel's pending-exchange state).
	scratch ipc.Segment
}

// segment points the client's scratch descriptor at data and returns it.
func (c *Client) segment(data []byte, access byte) *ipc.Segment {
	c.scratch = ipc.Segment{Data: data, Access: access}
	return &c.scratch
}

// NewClient binds stubs for the calling process to the given server pid
// and DefaultVolume.
func NewClient(p *ipc.Proc, server ipc.Pid) *Client {
	return &Client{p: p, server: server, vol: DefaultVolume, retry: DefaultRetryPolicy, sleep: time.Sleep}
}

// NewVolumeClient binds stubs for the calling process to one volume,
// resolving the server that hosts it through the router. Operations
// re-resolve and retry (bounded by RetryPolicy.Reroutes) when the route
// goes stale.
func NewVolumeClient(p *ipc.Proc, router *Router, vol uint32) *Client {
	return &Client{p: p, vol: vol, router: router, retry: DefaultRetryPolicy, sleep: time.Sleep}
}

// Discover resolves a file server via the broadcast name service and
// returns a client bound to it (first responder wins; in a sharded
// cluster that is an arbitrary server's DefaultVolume — use DiscoverAll
// or a Router for volume-aware binding).
func Discover(p *ipc.Proc) (*Client, error) {
	pid := p.GetPid(LogicalFileServer, ipc.ScopeBoth)
	if pid == vproto.Nil {
		return nil, ErrNoServer
	}
	return NewClient(p, pid), nil
}

// DiscoverAll enumerates every file server answering within the bounded
// window (0 → the node's default GetPid patience): the cluster's member
// list, where Discover stops at the first responder. Under loss the
// window's repeated broadcast rounds re-solicit responders whose replies
// were dropped.
func DiscoverAll(p *ipc.Proc, window time.Duration) ([]ipc.Pid, error) {
	pids := p.GetPidAll(LogicalFileServer, ipc.ScopeBoth, window)
	if len(pids) == 0 {
		return nil, ErrNoServer
	}
	return pids, nil
}

// ClusterMap enumerates the cluster (DiscoverAll) and asks each server
// for the volume set it owns, returning server pid → sorted volume ids.
func ClusterMap(p *ipc.Proc, window time.Duration) (map[ipc.Pid][]uint32, error) {
	servers, err := DiscoverAll(p, window)
	if err != nil {
		return nil, err
	}
	m := make(map[ipc.Pid][]uint32, len(servers))
	for _, pid := range servers {
		vols, err := NewClient(p, pid).QueryVolumes()
		if err != nil {
			// A server that died between discovery and the query is not
			// part of the map; the survivors still are.
			continue
		}
		m[pid] = vols
	}
	if len(m) == 0 {
		return nil, ErrNoServer
	}
	return m, nil
}

// SpreadReads does nothing: every operation, reads included, goes to
// the volume's primary. It exists only because bench/adapter.go
// compiles against it, and is deleted once ROADMAP item 1 drops the call.
//
// Deprecated: replicas serve no reads.
func (*Client) SpreadReads(bool) {}

// Server returns the bound (fixed-pid) or last-routed server pid.
func (c *Client) Server() ipc.Pid {
	if c.router != nil {
		return c.lastPid
	}
	return c.server
}

// SetTrace makes every subsequent request carry the given 24-bit trace
// id (0 restores untraced operation). Use obs.NewTraceID for fresh ids.
func (c *Client) SetTrace(id uint32) { c.trace = id & vproto.TraceMask }

// request assembles a request message addressed to the client's volume.
func (c *Client) request(op, file, blockOrOff, count uint32) ipc.Message {
	m := buildRequest(c.vol, op, file, blockOrOff, count)
	if c.trace != 0 {
		m.SetTrace(c.trace)
	}
	return m
}

// target resolves the pid this operation goes to. For a routed client a
// change of serving pid (the volume moved) fires the onReroute hook
// before any exchange reaches the new server.
func (c *Client) target() (ipc.Pid, error) {
	if c.router == nil {
		return c.server, nil
	}
	pid, err := c.router.Resolve(c.vol)
	if err != nil {
		return vproto.Nil, err
	}
	if c.lastPid != vproto.Nil && pid != c.lastPid && c.onReroute != nil {
		c.onReroute(pid)
	}
	c.lastPid = pid
	return pid, nil
}

// exchange runs one Send with the overload retry policy — ErrOverloaded
// means the kernel shed the message before delivery, so the identical
// exchange is re-sent after a capped exponential backoff — plus, for
// routed clients, bounded failover: ErrTimeout (server unreachable,
// retransmissions exhausted) or ErrNoProcess (server restarted under a
// new pid) drops the cached route and re-resolves. Failover makes the
// exchange at-least-once rather than exactly-once: a timed-out write may
// have executed before the re-sent copy does, which the idempotent page
// and range writes of this protocol tolerate.
func (c *Client) exchange(m *ipc.Message, seg *ipc.Segment) error {
	orig := *m
	delay := c.retry.Delay
	attempt, reroutes := 0, 0
	for {
		pid, err := c.target()
		if err != nil {
			return err
		}
		err = c.p.Send(m, pid, seg)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ipc.ErrOverloaded) && attempt < c.retry.Retries:
			attempt++
			c.sleep(jitter(delay))
			if delay *= 2; delay > c.retry.MaxDelay {
				delay = c.retry.MaxDelay
			}
		case c.router != nil && reroutes < c.retry.Reroutes &&
			(errors.Is(err, ipc.ErrTimeout) || errors.Is(err, ipc.ErrNoProcess)):
			reroutes++
			c.router.Invalidate(c.vol)
		default:
			return err
		}
		*m = orig
	}
}

// exchangeOp is exchange plus the common status check: a non-OK reply
// becomes an ErrBadStatus (or ErrNoVolume) error. A StatusNoVolume reply
// to a routed client means the cached route pointed at a server that no
// longer hosts the volume — the route is dropped and the operation
// re-resolved, bounded like exchange's failover. The reply message stays
// in *m for callers that read its extra words (counts, versions, lease).
func (c *Client) exchangeOp(m *ipc.Message, seg *ipc.Segment) error {
	orig := *m
	for reroutes := 0; ; reroutes++ {
		if err := c.exchange(m, seg); err != nil {
			return err
		}
		status, _ := parseReply(m)
		switch {
		case status == StatusOK:
			return nil
		case status == StatusNoVolume:
			if c.router != nil && reroutes < c.retry.Reroutes {
				c.router.Invalidate(c.vol)
				*m = orig
				continue
			}
			return fmt.Errorf("%w: volume %d", ErrNoVolume, c.vol)
		default:
			return fmt.Errorf("%w: status %d", ErrBadStatus, status)
		}
	}
}

// ReadBlock reads up to len(dst) bytes of the given file block into dst:
// one Send granting write access to dst, one reply packet carrying the
// page (§3.4). It returns the byte count the server sent.
func (c *Client) ReadBlock(file, block uint32, dst []byte) (int, error) {
	m := c.request(OpReadBlock, file, block, uint32(len(dst)))
	if err := c.exchangeOp(&m, c.segment(dst, ipc.SegWrite)); err != nil {
		return 0, err
	}
	_, n := parseReply(&m)
	return int(n), nil
}

// WriteBlock writes data as the given file block: one Send carrying the
// data inline (§3.4), one reply. With a write-behind server the reply
// acknowledges the staged block, not the store write; Sync forces the
// write-back.
func (c *Client) WriteBlock(file, block uint32, data []byte) error {
	m := c.request(OpWriteBlock, file, block, uint32(len(data)))
	return c.exchangeOp(&m, c.segment(data, ipc.SegRead))
}

// ReadLarge reads up to len(dst) bytes starting at byte offset off into
// dst. The server streams the data, one train per 64 KB (§6.3), the last
// one ahead of its reply; the count returned is how many bytes the file held.
func (c *Client) ReadLarge(file, off uint32, dst []byte) (int, error) {
	m := c.request(OpReadLarge, file, off, uint32(len(dst)))
	if err := c.exchangeOp(&m, c.segment(dst, ipc.SegWrite)); err != nil {
		return 0, err
	}
	_, n := parseReply(&m)
	return int(n), nil
}

// WriteLarge writes data to the file at byte offset off; the server pulls
// it with scatter MoveFrom, one train per 64 KB, the first pushed right
// behind the Send, not a request away.
func (c *Client) WriteLarge(file, off uint32, data []byte) error {
	m := c.request(OpWriteLarge, file, off, uint32(len(data)))
	return c.exchangeOp(&m, c.segment(data, ipc.SegRead))
}

// QueryFile returns a file's size in bytes (staged write-behind
// extensions included).
func (c *Client) QueryFile(file uint32) (int, error) {
	m := c.request(OpQueryFile, file, 0, 0)
	if err := c.exchangeOp(&m, nil); err != nil {
		return 0, err
	}
	_, n := parseReply(&m)
	return int(n), nil
}

// CreateFile creates (or truncates) a file of the given size.
func (c *Client) CreateFile(file uint32, size uint32) error {
	m := c.request(OpCreateFile, file, size, 0)
	return c.exchangeOp(&m, nil)
}

// QueryVolumes asks the server for the volume set it hosts (volume-
// agnostic — any server answers; one reply packet bounds the set). With
// DiscoverAll this yields the cluster map: which server owns which
// volumes.
func (c *Client) QueryVolumes() ([]uint32, error) {
	buf := make([]byte, vproto.MaxData)
	m := c.request(OpQueryVolumes, 0, 0, uint32(len(buf)))
	if err := c.exchangeOp(&m, c.segment(buf, ipc.SegWrite)); err != nil {
		return nil, err
	}
	_, n := parseReply(&m)
	vols, ok := decodeIDs(buf, n)
	if !ok {
		return nil, fmt.Errorf("%w: volume count %d", ErrBadStatus, n)
	}
	return vols, nil
}

// QueryStats scrapes the server's metrics registry over V IPC: the
// server replies its serialized snapshot (the obs text wire format —
// parse with obs.ParseSnapshot) into dst with ReplyWithSegment. It returns the
// bytes streamed and the full snapshot size; streamed < total means dst
// was too small and the snapshot was cut at a line boundary. Like
// QueryVolumes the op is volume-agnostic: any server answers for its
// whole node.
func (c *Client) QueryStats(dst []byte) (streamed, total int, err error) {
	m := c.request(OpQueryStats, 0, 0, uint32(len(dst)))
	if err = c.exchangeOp(&m, c.segment(dst, ipc.SegWrite)); err != nil {
		return 0, 0, err
	}
	st, tot := statsReply(&m)
	if int(st) > len(dst) {
		return 0, 0, fmt.Errorf("%w: streamed %d into %d-byte grant", ErrBadStatus, st, len(dst))
	}
	return int(st), int(tot), nil
}

// Sync asks the server to drain its write-behind blocks to the backing
// store (OpSync) — the durability point for acknowledged writes. A
// nonzero file id drains only that file's staged blocks (per-file sync:
// it does not wait on other files' backlogs); zero drains the whole
// cache.
func (c *Client) Sync(file uint32) error {
	m := c.request(OpSync, file, 0, 0)
	return c.exchangeOp(&m, nil)
}

// LoadProgram performs the §6.3 command-interpreter load sequence: one
// page read for the program header, a size query, then one large read
// streaming the code and data.
func (c *Client) LoadProgram(file uint32, headerSize int) ([]byte, error) {
	hdr := make([]byte, headerSize)
	if _, err := c.ReadBlock(file, 0, hdr); err != nil {
		return nil, err
	}
	size, err := c.QueryFile(file)
	if err != nil {
		return nil, err
	}
	image := make([]byte, size)
	n, err := c.ReadLarge(file, 0, image)
	if err != nil {
		return nil, err
	}
	return image[:n], nil
}
