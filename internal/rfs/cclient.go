package rfs

import (
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/rfs/ccache"
)

// CacheClientConfig tunes a CachingClient; the zero value gets defaults.
type CacheClientConfig struct {
	// Blocks bounds the local cache (0 → 256 blocks).
	Blocks int
	// BlockSize must match the server's page size (0 → 512).
	BlockSize int
}

// CacheClientStats snapshots a caching client's activity.
type CacheClientStats struct {
	Hits      int64 // page reads served from the local cache
	Misses    int64 // page reads that went to the server
	Renewals  int64 // registrations sent (first registrations + lease renewals)
	Purges    int64 // whole-file drops after a version mismatch on renewal
	Callbacks int64 // invalidation callbacks received from the server
}

// CachingClient is a diskless workstation's file client with a local
// block cache — the configuration the paper's §6.2 argues against. It
// wraps the plain stub Client and layers the cache-consistency protocol
// over it:
//
//   - Before the first cached access to a file (and again when the lease
//     runs low) the client registers with the server (OpRegisterCache),
//     naming the callback process it runs for invalidations, and learns
//     the file's version.
//   - Page reads check the cache first; misses fill it with a
//     generation-stamped insert (an invalidation racing the fill wins).
//   - On any other client's write the server Sends an OpInvalidate
//     callback before acknowledging the writer, and the callback process
//     drops the named blocks — so a read issued after any write's ack
//     never sees pre-write bytes (read-your-writes across clients).
//   - Writes go through to the server; the reply carries the post-write
//     version, and the local copy is refreshed (full pages) or dropped
//     (partial and large writes).
//   - Lost callbacks cannot serve stale bytes forever: cache hits are
//     refused once the lease runs out, the forced re-registration
//     returns the current version, and a mismatch purges the file's
//     cached blocks. The staleness window is bounded by one lease.
//
// Like Client, a CachingClient's request path is not safe for concurrent
// use; the callback process runs concurrently and shares only the
// internally locked state.
type CachingClient struct {
	*Client
	node  *ipc.Node
	cache *ccache.Cache
	cb    *ipc.Proc

	mu    sync.Mutex
	files map[uint32]*cachedFile
	now   func() time.Time // test hook (fake clock for the staleness bound)

	renewals  atomic.Int64
	purges    atomic.Int64
	callbacks atomic.Int64

	closed sync.Once
}

// cachedFile is the client's consistency state for one file.
type cachedFile struct {
	version    uint32
	versioned  bool // version field is meaningful (at least one registration completed)
	expires    time.Time
	registered bool
}

// NewCachingClient binds caching stubs for process p to the server (and
// DefaultVolume), spawning the invalidation-callback process on p's
// node. Close releases it.
func NewCachingClient(p *ipc.Proc, server ipc.Pid, cfg CacheClientConfig) (*CachingClient, error) {
	return newCachingClient(p, NewClient(p, server), cfg)
}

// NewVolumeCachingClient binds caching stubs for process p to one volume,
// routing every operation (and registration) to the server the router
// resolves. If the volume fails over to a different server, the whole
// local cache and every registration are discarded before the first
// exchange reaches the new server: its registry knows nothing about this
// client and its version counters restart, so nothing cached under the
// old server may survive — within a volume the PR 5 consistency protocol
// then holds exactly as before.
func NewVolumeCachingClient(p *ipc.Proc, router *Router, vol uint32, cfg CacheClientConfig) (*CachingClient, error) {
	return newCachingClient(p, NewVolumeClient(p, router, vol), cfg)
}

func newCachingClient(p *ipc.Proc, cl *Client, cfg CacheClientConfig) (*CachingClient, error) {
	c := &CachingClient{
		Client: cl,
		node:   p.Node(),
		cache:  ccache.New(ccache.Config{Blocks: cfg.Blocks, BlockSize: cfg.BlockSize}),
		files:  make(map[uint32]*cachedFile),
		now:    time.Now,
	}
	cl.onReroute = c.rerouted
	cb, err := c.node.Spawn(p.Name()+"-ccb", c.callbackLoop)
	if err != nil {
		c.cache.Close()
		return nil, err
	}
	c.cb = cb
	return c, nil
}

// rerouted runs when the routed client observes the volume on a new
// server pid: the previous server's registrations and version baselines
// mean nothing there, so the cache is purged wholesale and every file's
// consistency state reset (the next access re-registers from scratch).
// The purge bumps every generation stamp, so fills and write refreshes
// already in flight against the old server cannot resurrect their bytes.
func (c *CachingClient) rerouted(ipc.Pid) {
	c.purges.Add(1)
	c.mu.Lock()
	c.files = make(map[uint32]*cachedFile)
	c.mu.Unlock()
	c.cache.Purge()
}

// Stats snapshots the client-cache counters.
func (c *CachingClient) Stats() CacheClientStats {
	cs := c.cache.Stats()
	return CacheClientStats{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Renewals:  c.renewals.Load(),
		Purges:    c.purges.Load(),
		Callbacks: c.callbacks.Load(),
	}
}

// Close releases the client's registrations (best effort), stops the
// callback process and drops the cache.
func (c *CachingClient) Close() {
	c.closed.Do(func() {
		c.mu.Lock()
		var regs []uint32
		for file, fs := range c.files {
			if fs.registered {
				regs = append(regs, file)
			}
		}
		c.mu.Unlock()
		for _, file := range regs {
			m := c.request(OpReleaseCache, file, uint32(c.cb.Pid()), 0)
			_ = c.exchange(&m, nil)
		}
		c.node.Detach(c.cb)
		c.cache.Close()
	})
}

// callbackLoop is the invalidation-callback process: it receives
// OpInvalidate Sends from the server and answers each with callback's
// reply. The server withholds the writer's ack until this reply, so the
// drop happens-before any post-ack read anywhere.
func (c *CachingClient) callbackLoop(p *ipc.Proc) {
	for {
		msg, src, err := p.Receive()
		if err != nil {
			return
		}
		reply := c.callback(&msg)
		_ = p.Reply(&reply, src)
	}
}

// callback handles one message to the callback process, which accepts
// Sends from any peer: an OpInvalidate for this client's volume drops the
// named blocks and records the new version; anything else changes
// nothing.
func (c *CachingClient) callback(msg *ipc.Message) ipc.Message {
	op, file, first, count := parseRequest(msg)
	if op != OpInvalidate {
		return buildReply(StatusBadRequest, 0)
	}
	version, vol := parseInvalidate(msg)
	if vol != c.vol {
		// Another volume's callback (a registration left behind on a
		// server this client failed away from): acknowledge so the
		// writer is not held up, but touch nothing — this client's
		// cache holds only its own volume's blocks.
		return buildReply(StatusOK, 0)
	}
	c.callbacks.Add(1)
	if count == InvalidateAll {
		c.cache.InvalidateFile(file)
	} else {
		c.cache.Invalidate(file, first, count)
	}
	c.mu.Lock()
	if fs := c.files[file]; fs != nil {
		c.advanceVersion(fs, version)
	}
	c.mu.Unlock()
	return buildReply(StatusOK, 0)
}

// advanceVersion moves the file's version forward, never backward; caller
// holds c.mu.
func (c *CachingClient) advanceVersion(fs *cachedFile, v uint32) {
	if !fs.versioned || ccache.Newer(v, fs.version) {
		fs.version = v
		fs.versioned = true
	}
}

// ensure makes the file's registration fresh, re-registering when the
// lease has run low. It returns false — serve this access without the
// cache — when registration fails. A version mismatch on renewal means
// callbacks were missed (lost, or the registration was dropped): the
// file's cached blocks are purged before any of them can be served.
func (c *CachingClient) ensure(file uint32) bool {
	c.mu.Lock()
	fs := c.files[file]
	if fs == nil {
		fs = &cachedFile{}
		c.files[file] = fs
	}
	if fs.registered && c.now().Before(fs.expires) {
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()

	c.renewals.Add(1)
	m := c.request(OpRegisterCache, file, uint32(c.cb.Pid()), 0)
	if err := c.exchangeOp(&m, nil); err != nil {
		return false
	}
	_, version := parseReply(&m)
	lease := time.Duration(registerLease(&m)) * time.Millisecond

	c.mu.Lock()
	defer c.mu.Unlock()
	if fs.versioned && version != fs.version && !ccache.Newer(fs.version, version) {
		// The server counted writes we never heard about: every cached
		// block of the file is suspect.
		c.purges.Add(1)
		c.cache.InvalidateFile(file)
	}
	c.advanceVersion(fs, version)
	fs.registered = true
	// Renew at ¾ of the server's lease: the client-side window must sit
	// strictly inside the server's, or a write could skip the callback
	// (expired server-side) while a hit is still served (fresh
	// client-side).
	fs.expires = c.now().Add(lease * 3 / 4)
	return true
}

// ReadBlock reads up to len(dst) bytes of the file block, serving
// whole-page reads from the local cache when possible. Partial reads are
// served from a cached page but never fill the cache themselves.
func (c *CachingClient) ReadBlock(file, block uint32, dst []byte) (int, error) {
	if !c.ensure(file) {
		return c.Client.ReadBlock(file, block, dst)
	}
	if b, ok := c.cache.Get(file, block); ok {
		n := copy(dst, b.Data)
		b.Release()
		return n, nil
	}
	gen := c.cache.Snapshot(file, block)
	m := c.request(OpReadBlock, file, block, uint32(len(dst)))
	if err := c.exchangeOp(&m, c.segment(dst, ipc.SegWrite)); err != nil {
		return 0, err
	}
	_, n := parseReply(&m)
	c.cache.Insert(file, block, dst[:n], gen) // no-op unless a whole page
	return int(n), nil
}

// WriteBlock writes the block through to the server, keeps the local copy
// current (whole pages refresh it in place, partial writes drop it) and
// records the post-write version from the reply.
func (c *CachingClient) WriteBlock(file, block uint32, data []byte) error {
	// The local copy may only be refreshed under a live registration —
	// an unregistered cache entry would never hear about other clients'
	// writes and could serve stale bytes forever.
	registered := c.ensure(file)
	gen := c.cache.Snapshot(file, block)
	m := c.request(OpWriteBlock, file, block, uint32(len(data)))
	if err := c.exchangeOp(&m, c.segment(data, ipc.SegRead)); err != nil {
		return err
	}
	c.noteWriteVersion(file, &m)
	if registered && len(data) == c.cache.BlockSize() {
		c.cache.Insert(file, block, data, gen)
	} else {
		c.cache.Invalidate(file, block, 1)
	}
	return nil
}

// WriteLarge writes through and drops the local copies of every touched
// block.
func (c *CachingClient) WriteLarge(file, off uint32, data []byte) error {
	c.ensure(file)
	m := c.request(OpWriteLarge, file, off, uint32(len(data)))
	if err := c.exchangeOp(&m, c.segment(data, ipc.SegRead)); err != nil {
		return err
	}
	c.noteWriteVersion(file, &m)
	if len(data) > 0 {
		bs := uint32(c.cache.BlockSize())
		first := off / bs
		last := (off + uint32(len(data)) - 1) / bs
		c.cache.Invalidate(file, first, last-first+1)
	}
	return nil
}

// CreateFile creates or truncates the file and drops every local block.
func (c *CachingClient) CreateFile(file uint32, size uint32) error {
	m := c.request(OpCreateFile, file, size, 0)
	if err := c.exchangeOp(&m, nil); err != nil {
		return err
	}
	c.noteWriteVersion(file, &m)
	c.cache.InvalidateFile(file)
	return nil
}

// noteWriteVersion records the post-write version a write reply carried
// (word 3, valid when word 4 is set), keeping the client's view current
// without a callback for its own writes.
//
// The advance must be CONTIGUOUS (exactly our last known version + 1):
// the server mints one version per write, so a reply that skips ahead
// proves versions were minted that we never heard about — invalidations
// lost or a registration silently revoked. Blindly adopting the newer
// number would let the next renewal's equality check pass over the gap
// and the staleness bound would quietly become unbounded; instead the
// gap purges the file's cached blocks immediately. (Callback-delivered
// versions may skip — two callbacks can arrive out of order — but every
// callback also drops its blocks unconditionally, so gaps there are
// harmless; only this no-callback path needs the contiguity proof.)
func (c *CachingClient) noteWriteVersion(file uint32, m *ipc.Message) {
	v, tracked := replyVersion(m)
	if !tracked {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.files[file]
	if fs == nil || !fs.versioned {
		// Never synced with a registration: nothing cached, nothing to
		// track — the first successful registration establishes the
		// baseline.
		return
	}
	switch {
	case !ccache.Newer(v, fs.version):
		// A stale reply racing callbacks that already advanced us.
	case v == fs.version+1:
		fs.version = v
	default:
		c.purges.Add(1)
		c.cache.InvalidateFile(file)
		fs.version = v
	}
}
