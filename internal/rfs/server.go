package rfs

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// Config tunes the file server; the zero value gets defaults. Cache
// sizing (CacheBlocks, DirtyBudget, Flushers) is per volume: each volume
// a server hosts gets its own block cache, dirty budget and flusher
// pool, so one volume's write backlog never starves another's.
type Config struct {
	// Metrics is the observability registry the server registers its
	// rfs.* counters, per-op latency histograms and per-volume gauges
	// with. Nil defaults to the node's registry, so one OpQueryStats
	// scrape covers the ipc, net and rfs layers together.
	Metrics *obs.Registry
	// SlowOp, when positive, captures a trace-ring span for any request
	// slower than the threshold — traced or not — and enables latency
	// timing on the registry. Zero leaves span capture to explicitly
	// traced requests.
	SlowOp time.Duration
	// BlockSize is the page size in bytes (0 → 512, the paper's page).
	// Pages travel in one reply packet, so it is capped at vproto.MaxData.
	BlockSize int
	// CacheBlocks is the block-cache capacity in blocks (0 → 1024).
	CacheBlocks int
	// Workers is how many goroutines Receive on the server process and
	// serve what they receive (0 → one per CPU, 2..16); it bounds the
	// requests in service at once.
	Workers int
	// ReceiveQueueDepth bounds the server process's FCFS receive queue,
	// the server's only request queue: the exchanges waiting while every
	// worker is busy. Past the bound the kernel sheds new Sends with an
	// overload Nack, which the client stub surfaces as ipc.ErrOverloaded
	// (retryable), instead of growing memory without limit. 0 → a
	// generous 1024; negative disables the bound.
	ReceiveQueueDepth int
	// DirtyBudget bounds the staged-but-unflushed blocks the server will
	// hold: writes are staged as extents, acknowledged at once and
	// written back asynchronously (OpSync / Server.Flush force the
	// write-back); writers past the bound block until the flushers catch
	// up (backpressure). 0 → 256, capped at CacheBlocks; negative → 1
	// (effectively synchronous, but still off the request path: at most
	// one acknowledged block is ever unflushed).
	DirtyBudget int
	// Flushers sizes the write-behind flusher pool (0 → 2). Each flusher
	// claims the oldest staged write it may write back as soon as it is
	// free and writes it back with a single store write.
	Flushers int
	// CacheLease bounds a client-cache registration (0 → 2s). It is also
	// the staleness bound of the consistency protocol: a client whose
	// invalidation callbacks are lost can serve stale cached bytes for at
	// most one lease before the forced re-registration's version check
	// purges them.
	CacheLease time.Duration
	// CallbackTimeout bounds one write's whole invalidation fan-out
	// (0 → 1s). Registrations that have not acknowledged by then are
	// revoked and the write acknowledged anyway — a misbehaving callback
	// process must not stall the write path; the revoked client falls
	// back to the lease/version staleness bound.
	CallbackTimeout time.Duration
	// ReplicaLease is the replication heartbeat lease (0 → 2s). Replicas
	// renew at a quarter lease; a primary silent for a whole lease is
	// presumed dead and the promotion rule runs (see replica.go). The
	// primary prunes members silent for two leases.
	ReplicaLease time.Duration
	// ReplicaAckTimeout bounds one write's wait for its in-sync replica
	// acks (0 → 1s). Replicas still lagging when it fires are dropped
	// from the in-sync set, so a dead replica costs the write path one
	// timeout, once, instead of wedging it.
	ReplicaAckTimeout time.Duration
	// ReplicaLogMax and ReplicaLogMaxBytes bound the per-volume catch-up
	// log in records and bytes (0 → 1024 / 4 MiB). A replica trimmed out
	// of the log is pushed a snapshot instead.
	ReplicaLogMax      int
	ReplicaLogMaxBytes int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 512
	}
	if c.BlockSize > vproto.MaxData {
		c.BlockSize = vproto.MaxData
	}
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
		if c.Workers > 16 {
			c.Workers = 16
		}
	}
	switch {
	case c.ReceiveQueueDepth < 0:
		c.ReceiveQueueDepth = 0 // unbounded
	case c.ReceiveQueueDepth == 0:
		c.ReceiveQueueDepth = 1024
	}
	switch {
	case c.DirtyBudget < 0:
		c.DirtyBudget = 1
	case c.DirtyBudget == 0:
		c.DirtyBudget = 256
	}
	if c.DirtyBudget > c.CacheBlocks {
		c.DirtyBudget = c.CacheBlocks
	}
	if c.Flushers <= 0 {
		c.Flushers = 2
	}
	if c.CacheLease <= 0 {
		c.CacheLease = 2 * time.Second
	}
	if c.CallbackTimeout <= 0 {
		c.CallbackTimeout = time.Second
	}
	if c.ReplicaLease <= 0 {
		c.ReplicaLease = 2 * time.Second
	}
	if c.ReplicaAckTimeout <= 0 {
		c.ReplicaAckTimeout = time.Second
	}
	if c.ReplicaLogMax <= 0 {
		c.ReplicaLogMax = 1024
	}
	if c.ReplicaLogMaxBytes <= 0 {
		c.ReplicaLogMaxBytes = 4 << 20
	}
	return c
}

// serverCounters are the server's rfs.* registry counters that no one
// op owns, held as direct pointers so the hot paths skip the registry's
// name lookup. Per-op counters are named by the ops table.
type serverCounters struct {
	requests    *obs.Counter
	badRequests *obs.Counter
	bytesRead   *obs.Counter
	bytesWrite  *obs.Counter
	promotions  *obs.Counter
	replApplied *obs.Counter
	replResyncs *obs.Counter
}

func newServerCounters(reg *obs.Registry) serverCounters {
	return serverCounters{
		requests:    reg.Counter("rfs.requests"),
		badRequests: reg.Counter("rfs.bad_requests"),
		bytesRead:   reg.Counter("rfs.bytes_read"),
		bytesWrite:  reg.Counter("rfs.bytes_written"),
		promotions:  reg.Counter("rfs.promotions"),
		replApplied: reg.Counter("rfs.repl_applied"),
		replResyncs: reg.Counter("rfs.repl_resyncs"),
	}
}

// opClass is an op's gate: which hosted volumes may serve it.
type opClass uint8

const (
	// classGlobal ops are volume-agnostic: a server answers for itself,
	// whatever the request's volume word says.
	classGlobal opClass = iota
	// classPrimary ops are served by the volume's primary alone: reads,
	// mutations, cache registrations and every unknown opcode. A replica
	// exists for durability and failover, and serves none of them.
	classPrimary
	// classControl ops are the replication control protocol, served only
	// by a primary that has replication state.
	classControl
)

// opRow is one opcode's entry in the ops table.
type opRow struct {
	name    string // rfs.op.<name> latency histogram and rfs.<name> span
	counter string // registry counter bumped per admitted request ("" = none)
	class   opClass
	serve   func(s *Server, v *volume, req *request, file, arg, count uint32)
}

// ops declares every opcode the file server process serves, indexed by
// opcode; the handler gets the request's words 2-4 and, except for
// classGlobal, the admitted volume. Row 0 is the sentinel every other
// word lands on (opcode 0, the callback and replica-apply ops other
// processes serve, anything past the end): a replica or an unhosted
// volume answers it NoVolume, a primary BadRequest.
var ops = [numOps]opRow{
	0:               {"other", "", classPrimary, (*Server).badRequest},
	OpReadBlock:     {"read_block", "rfs.page_reads", classPrimary, (*Server).pageRead},
	OpWriteBlock:    {"write_block", "rfs.page_writes", classPrimary, (*Server).pageWrite},
	OpReadLarge:     {"read_large", "rfs.large_reads", classPrimary, (*Server).largeRead},
	OpWriteLarge:    {"write_large", "rfs.large_writes", classPrimary, (*Server).largeWrite},
	OpQueryFile:     {"query_file", "rfs.queries", classPrimary, (*Server).queryFile},
	OpCreateFile:    {"create_file", "rfs.creates", classPrimary, (*Server).createFile},
	OpSync:          {"sync", "rfs.syncs", classPrimary, (*Server).syncFiles},
	OpRegisterCache: {"register_cache", "", classPrimary, (*Server).registerCache},
	OpReleaseCache:  {"release_cache", "", classPrimary, (*Server).releaseCache},
	OpQueryVolumes:  {"query_volumes", "", classGlobal, (*Server).queryVolumes},
	OpRepJoin:       {"repl_control", "", classControl, (*Server).handleRepJoin},
	OpRepHeartbeat:  {"repl_control", "", classControl, (*Server).handleRepHeartbeat},
	OpQueryStats:    {"query_stats", "rfs.stat_scrapes", classGlobal, (*Server).queryStats},
}

// numOps sizes the ops table: one row per opcode up to the last.
const numOps = OpQueryStats + 1

// opIndex maps a request's opcode word to its ops row, the sentinel row 0
// unless the server process serves the opcode.
func opIndex(op uint32) uint32 {
	if op < uint32(len(ops)) && ops[op].serve != nil {
		return op
	}
	return 0
}

// request is the exchange a worker is serving. Each worker owns one for
// its lifetime and receives every exchange into it.
type request struct {
	msg    ipc.Message
	src    ipc.Pid
	buf    []byte // staging: holds the inline segment prefix
	inline int    // bytes of buf filled by the Send's inline prefix
	trace  uint32 // the request message's 24-bit trace id (0 = untraced)
	// held, views and parts are the large ops' per-train scratch (the
	// buffers a train borrows, its blocks' lent images and its gather or
	// scatter list), kept across exchanges.
	held  []*bufpool.Buf
	views [][]byte
	parts [][]byte
}

// VolumeRole is a hosted volume's replication role.
type VolumeRole int32

const (
	// RolePrimary (the zero value, so unreplicated specs are unchanged)
	// owns the volume: it registers the volume's logical name, serves
	// writes and fans acked mutations out to its replicas.
	RolePrimary VolumeRole = iota
	// RoleReplica mirrors a primary: it applies the primary's record
	// stream, serves no reads, and promotes itself if the primary dies
	// (see replica.go).
	RoleReplica
)

// Internal int32 forms for the volume's atomic role word.
const (
	rolePrimary = int32(RolePrimary)
	roleReplica = int32(RoleReplica)
)

// rejoinReplicaBase offsets the replica ids a Rejoin demotion
// synthesizes, so a restarted ex-primary never outranks a configured
// replica in the promotion order (lowest id wins).
const rejoinReplicaBase uint32 = 1 << 12

// VolumeSpec names one volume a server hosts and the store backing it.
type VolumeSpec struct {
	ID    uint32
	Store Store
	// Role picks primary (default) or replica; StartCluster assigns it.
	Role VolumeRole
	// Replicas is the replica count a primary expects; > 0 enables
	// the replication engine for the volume (zero keeps the pre-
	// replication single-copy behavior, with no write-path overhead).
	Replicas int
	// ReplicaID identifies a replica within its volume's replica set
	// (1..N; required for RoleReplica — 0 is reserved). It is also the
	// promotion rank: the lowest in-sync id promotes first.
	ReplicaID uint32
	// Rejoin makes a primary spec probe the name service before
	// registering: if another server already advertises the volume (a
	// replica promoted while this server was down), the spec demotes
	// itself to a replica of the new primary instead of fighting it —
	// the restart half of the kill/promote/restart cycle.
	Rejoin bool
}

// volume is one hosted volume: an independent store behind an
// independent block cache (own LRU, own dirty budget, own flushers), so
// volumes are isolated sharding units — same file ids in two volumes are
// different files, and one volume's flush backlog cannot block another's
// writers.
type volume struct {
	id    uint32
	store Store
	cache *blockCache
	// role is the volume's current replication role; promotion flips a
	// replica to primary at runtime (role is the acquire/release gate:
	// repl is published before the primary role is stored).
	role atomic.Int32
	// repl is the primary-side replication state (nil when the volume is
	// a replica or replication is off).
	repl *replState
	// rv is the replica-side machinery (nil on primaries; it survives a
	// promotion with its run loop stopped).
	rv *replicaVol
}

// Server is a real networked V file server: one V process serving the
// Verex I/O protocol and N hosted volumes, each an LRU block cache over a
// Store.
//
// The server's workers are the process: each of Config.Workers
// goroutines Receives on it, serves the exchange it got with Reply,
// MoveTo or MoveFrom, and Receives again. The kernel's FCFS receive
// queue is the only request queue, and requests from independent
// clients proceed in parallel, one per worker.
//
// Every hosted volume is advertised through the broadcast name service
// as LogicalVolumeBase+id, which is the cluster's routing table: an
// rfs.Router resolves a volume to the server pid currently advertising
// it. The volume set is fixed at Start.
type Server struct {
	node     *ipc.Node
	cfg      Config
	volumes  map[uint32]*volume
	registry *cacheRegistry
	proc     *ipc.Proc

	workers sync.WaitGroup
	closed  sync.Once

	// metrics is the server's observability registry (never nil; defaults
	// to the node's, so ipc/net/rfs share one scrape). opHists and
	// opCounts hold each ops row's latency histogram and counter;
	// gaugeNames lists the per-volume pull-time gauges Close must
	// unregister.
	metrics    *obs.Registry
	opHists    [numOps]*obs.Histogram
	opCounts   [numOps]*obs.Counter
	gaugeNames []string

	stats serverCounters
}

// Start spawns a single-volume file server: store becomes DefaultVolume,
// which is what legacy clients (whose requests carry a zero volume word)
// address. The caller retains ownership of store until Close.
func Start(node *ipc.Node, store Store, cfg Config) (*Server, error) {
	return StartVolumes(node, []VolumeSpec{{ID: DefaultVolume, Store: store}}, cfg)
}

// StartVolumes spawns the file-server process on node hosting the given
// volume set. The server registers LogicalFileServer (cluster
// enumeration) and one LogicalVolumeBase+id name per volume (routing),
// all with network-wide scope. The caller retains ownership of the
// stores until Close.
func StartVolumes(node *ipc.Node, vols []VolumeSpec, cfg Config) (*Server, error) {
	if len(vols) == 0 {
		return nil, errors.New("rfs: no volumes")
	}
	s := &Server{
		node:    node,
		cfg:     cfg.withDefaults(),
		volumes: make(map[uint32]*volume, len(vols)),
	}
	s.metrics = s.cfg.Metrics
	if s.metrics == nil {
		s.metrics = node.Metrics()
	}
	s.stats = newServerCounters(s.metrics)
	if s.cfg.SlowOp > 0 {
		s.metrics.SetSlowOp(s.cfg.SlowOp)
	}
	for i := range ops {
		if row := &ops[i]; row.serve != nil {
			s.opHists[i] = s.metrics.Histogram("rfs.op." + row.name)
			if row.counter != "" {
				s.opCounts[i] = s.metrics.Counter(row.counter)
			}
		}
	}
	cleanup := func() {
		for _, v := range s.volumes {
			if v.rv != nil {
				v.rv.close()
			}
			v.cache.close()
		}
	}
	specs := make([]VolumeSpec, len(vols))
	copy(specs, vols)
	for i := range specs {
		spec := &specs[i]
		if _, dup := s.volumes[spec.ID]; dup {
			cleanup()
			return nil, fmt.Errorf("rfs: duplicate volume %d", spec.ID)
		}
		if spec.Store == nil {
			cleanup()
			return nil, fmt.Errorf("rfs: volume %d has no store", spec.ID)
		}
		if spec.Role == RoleReplica && spec.ReplicaID == 0 {
			cleanup()
			return nil, fmt.Errorf("rfs: replica volume %d needs a replica id", spec.ID)
		}
		v := &volume{id: spec.ID, store: spec.Store}
		v.role.Store(int32(spec.Role))
		v.cache = newBlockCache(s.cfg.CacheBlocks, s.cfg.BlockSize, s.cfg.DirtyBudget, s.cfg.Flushers,
			func(file uint32, off int64, p []byte) error { return v.store.WriteAt(file, p, off) })
		v.cache.ring = s.metrics.Trace()
		s.volumes[spec.ID] = v
		s.registerVolumeGauges(v)
	}
	s.registry = newCacheRegistry(node, s.cfg.CacheLease, s.cfg.CallbackTimeout, s.metrics)
	s.metrics.GaugeFunc("rfs.cache_watchers", func() int64 { return int64(s.registry.watcherCount()) })
	s.gaugeNames = append(s.gaugeNames, "rfs.cache_watchers")

	// Rejoin probes: a restarting ex-primary asks the name service first
	// whether another server took its volume over while it was down (a
	// replica promoted), and if so demotes the spec to a replica of the
	// new primary — synthesizing a replica id above every configured one
	// so it never jumps the promotion queue.
	rejoin := false
	for i := range specs {
		if specs[i].Rejoin && specs[i].Role == RolePrimary {
			rejoin = true
		}
	}
	if rejoin {
		probe, err := node.Attach("rfs-rejoin-probe")
		if err != nil {
			cleanup()
			return nil, err
		}
		for i := range specs {
			spec := &specs[i]
			if !spec.Rejoin || spec.Role != RolePrimary {
				continue
			}
			if probe.GetPid(LogicalVolumeBase+spec.ID, ipc.ScopeRemote) != vproto.Nil {
				spec.Role = RoleReplica
				spec.ReplicaID = rejoinReplicaBase + uint32(probe.Pid())>>16
				s.volumes[spec.ID].role.Store(roleReplica)
			}
		}
		node.Detach(probe)
	}

	for i := range specs {
		spec := &specs[i]
		v := s.volumes[spec.ID]
		if v.role.Load() != roleReplica {
			continue
		}
		rv, err := s.startReplica(v, spec.ReplicaID)
		if err != nil {
			cleanup()
			return nil, err
		}
		v.rv = rv
	}

	proc, err := node.Attach("fileserver")
	if err != nil {
		cleanup()
		return nil, err
	}
	s.proc = proc
	proc.SetQueueLimit(s.cfg.ReceiveQueueDepth)
	proc.SetPid(LogicalFileServer, proc.Pid(), ipc.ScopeBoth)
	for i := range specs {
		spec := &specs[i]
		v := s.volumes[spec.ID]
		if v.role.Load() != rolePrimary {
			continue
		}
		if spec.Replicas > 0 {
			v.repl = newReplState(s, spec.ID, 0)
		}
		// Only primaries advertise the volume's logical name — the name
		// service doubles as the routing table, and writes pin here.
		proc.SetPid(LogicalVolumeBase+spec.ID, proc.Pid(), ipc.ScopeBoth)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	// Control loops start last: a replica's join carries the server pid,
	// so the server process must exist first.
	for _, v := range s.volumes {
		if v.rv != nil {
			v.rv.start()
		}
	}
	return s, nil
}

// registerVolumeGauges publishes one volume's pull-time gauges under
// rfs.vol<id>.*. The closures gate every v.repl dereference on the
// primary role word — promotion publishes repl before storing the role,
// so the atomic load orders the reads. Close unregisters the names so a
// stopped server's closures never outlive it in a shared registry.
func (s *Server) registerVolumeGauges(v *volume) {
	pfx := fmt.Sprintf("rfs.vol%d.", v.id)
	add := func(name string, f func() int64) {
		s.metrics.GaugeFunc(pfx+name, f)
		s.gaugeNames = append(s.gaugeNames, pfx+name)
	}
	add("cache_hits", func() int64 { return v.cache.hits.Load() })
	add("cache_misses", func() int64 { return v.cache.misses.Load() })
	add("dirty_blocks", func() int64 { return int64(v.cache.dirtyBlocks()) })
	add("staged_extents", func() int64 { return int64(v.cache.stagedExtents()) })
	add("flush_runs", func() int64 { return v.cache.flushRuns.Load() })
	add("flushed_blocks", func() int64 { return v.cache.flushedBlocks.Load() })
	add("writeback_drops", func() int64 { return v.cache.wbDrops.Load() })
	add("flush_errs", func() int64 { return v.cache.flushErrs.Load() })
	add("role", func() int64 { return int64(v.role.Load()) })
	add("repl_seq", func() int64 {
		if v.role.Load() == rolePrimary && v.repl != nil {
			return int64(v.repl.current())
		}
		return 0
	})
	add("repl_insync", func() int64 {
		if v.role.Load() == rolePrimary && v.repl != nil {
			return int64(v.repl.insyncCount())
		}
		return 0
	})
	add("repl_lag", func() int64 {
		if v.role.Load() == rolePrimary && v.repl != nil {
			return int64(v.repl.lag())
		}
		return 0
	})
}

// Metrics returns the server's observability registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Role returns a hosted volume's current replication role; promotion
// flips a replica to RolePrimary at runtime.
func (s *Server) Role(vol uint32) (VolumeRole, bool) {
	v := s.volumes[vol]
	if v == nil {
		return 0, false
	}
	return VolumeRole(v.role.Load()), true
}

// Pid returns the server process id.
func (s *Server) Pid() ipc.Pid { return s.proc.Pid() }

// Volumes returns the hosted volume ids in ascending order.
func (s *Server) Volumes() []uint32 {
	ids := make([]uint32, 0, len(s.volumes))
	for id := range s.volumes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Flush drains every volume's staged writes to its store (write-behind's
// sync point; OpSync is the protocol's way to request it). It returns
// the first store error the flushers hit since the previous drain.
func (s *Server) Flush() error {
	var first error
	for _, v := range s.volumes {
		if err := v.cache.flushAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the server: the server process goes away, which fails the
// exchanges still queued and every worker's Receive, the workers and idle
// callback callers exit, staged writes flush to the stores, and the block
// caches return their buffers to the pool. The stores are not closed.
func (s *Server) Close() {
	s.closed.Do(func() {
		// Replica control loops stop first: a promotion racing the
		// teardown would re-register a name this server is abandoning.
		// After close a promotion either happened (v.repl is set and torn
		// down below) or never will.
		for _, v := range s.volumes {
			if v.rv != nil {
				v.rv.close()
			}
		}
		s.node.Detach(s.proc)
		s.workers.Wait()
		s.registry.close()
		for _, v := range s.volumes {
			if v.repl != nil {
				v.repl.close()
			}
		}
		for _, v := range s.volumes {
			v.cache.close()
		}
		for _, name := range s.gaugeNames {
			s.metrics.Unregister(name)
		}
	})
}

// worker is one of the server's request goroutines: it Receives on the
// server process into its own staging buffer and serves each exchange
// until the process goes away.
func (s *Server) worker() {
	defer s.workers.Done()
	req := &request{buf: make([]byte, vproto.MaxData)}
	for {
		msg, src, n, err := s.proc.ReceiveWithSegment(req.buf)
		if err != nil {
			return
		}
		req.msg, req.src, req.inline = msg, src, n
		s.handle(req)
	}
}

// handle instruments one received request around dispatch: when timing is
// on (or the request is traced, which forces a measurement) the
// request's latency lands in the per-op rfs.op.* histogram, and a span
// is recorded for traced requests and for untraced ones that crossed
// the slow-op threshold — the auto-capture that makes an anomalous
// request visible after the fact without tracing everything.
func (s *Server) handle(req *request) {
	req.trace = req.msg.Trace()
	t0 := s.metrics.Start()
	if t0.IsZero() && req.trace != 0 {
		t0 = time.Now()
	}
	i := s.dispatch(req)
	if t0.IsZero() {
		return
	}
	dur := time.Since(t0)
	if s.metrics.TimingEnabled() {
		s.opHists[i].Observe(int64(dur))
	}
	slow := s.metrics.SlowOpNs()
	if req.trace != 0 || (slow > 0 && int64(dur) >= slow) {
		s.metrics.Trace().Record(req.trace, "rfs."+ops[i].name, uint64(reqOp(&req.msg)), dur)
	}
}

// dispatch serves one request through its ops row — gate on the row's
// class against the addressed volume's role, bump the row's counter, call
// the row's handler — and returns the row's index.
func (s *Server) dispatch(req *request) uint32 {
	s.stats.requests.Add(1)
	op, file, arg, count := parseRequest(&req.msg)
	i := opIndex(op)
	row := &ops[i]
	var v *volume
	if row.class != classGlobal {
		v = s.volumes[reqVolume(&req.msg)]
		if v == nil || !v.admits(row.class) {
			// The NoVolume reply makes a routed client re-resolve.
			s.replyStatus(req.src, StatusNoVolume, 0)
			return i
		}
	}
	s.opCounts[i].Add(1)
	row.serve(s, v, req, file, arg, count)
	return i
}

// admits is the op table's gate: whether v, in its current role, serves
// ops of class c. Roles flip only replica→primary at runtime, and a
// promotion publishes repl before it stores the role, so the role load
// orders the repl read here and in the handlers behind the gate.
func (v *volume) admits(c opClass) bool {
	if c == classControl {
		return v.role.Load() == rolePrimary && v.repl != nil
	}
	return v.role.Load() == rolePrimary
}

// badRequest answers the sentinel row: an opcode this process does not
// serve.
func (s *Server) badRequest(_ *volume, req *request, _, _, _ uint32) {
	s.replyStatus(req.src, StatusBadRequest, 0)
}

// queryFile serves OpQueryFile: the file size in reply word 2.
func (s *Server) queryFile(v *volume, req *request, file, _, _ uint32) {
	size, err := s.sizeOf(v, file)
	if err != nil {
		s.replyStatus(req.src, statusFor(err), 0)
		return
	}
	s.replyStatus(req.src, StatusOK, uint32(size))
}

// createFile serves OpCreateFile: create or truncate file to size bytes.
func (s *Server) createFile(v *volume, req *request, file, size, _ uint32) {
	err := v.cache.truncate(file, func() error {
		return v.store.Create(file, int64(size))
	})
	if err != nil {
		s.replyStatus(req.src, StatusIOError, 0)
		return
	}
	seq := s.replicateAppend(v, repKindCreate, file, size, req.trace)
	fan, ver, tracked := s.registry.invalidateStart(v.id, file, 0, InvalidateAll, req.src, req.trace)
	s.replicateCommit(v, seq)
	s.registry.wait(&fan)
	s.replyWritten(req.src, 0, ver, tracked)
}

// syncFiles serves OpSync: word 2 selects the file to drain; zero drains
// the volume.
func (s *Server) syncFiles(v *volume, req *request, file, _, _ uint32) {
	var err error
	if file == 0 {
		err = v.cache.flushAll()
	} else {
		err = v.cache.flushFile(file)
	}
	if err != nil {
		s.replyStatus(req.src, StatusIOError, 0)
		return
	}
	s.replyStatus(req.src, StatusOK, 0)
}

// registerCache serves OpRegisterCache: cb is the client's callback pid;
// the reply carries the file's current version and the registration
// lease in milliseconds.
func (s *Server) registerCache(v *volume, req *request, file, cb, _ uint32) {
	version := s.registry.register(v.id, file, req.src, ipc.Pid(cb))
	m := buildReply(StatusOK, version)
	stampRegisterLease(&m, uint32(s.cfg.CacheLease/time.Millisecond))
	_ = s.proc.Reply(&m, req.src)
}

// releaseCache serves OpReleaseCache.
func (s *Server) releaseCache(v *volume, req *request, file, cb, _ uint32) {
	s.registry.release(v.id, file, ipc.Pid(cb))
	s.replyStatus(req.src, StatusOK, 0)
}

// queryStats answers OpQueryStats: the server's whole registry —
// counters, gauges (per-volume ones included) and histogram summaries —
// serialized to the obs text wire format and replied into the client's
// granted buffer with ReplyWithSegment. count is the grant size. The
// reply carries the bytes sent in word 2 and the full snapshot size in
// word 3, so an undersized grant is detectable (sent < total): the
// snapshot is cut at a line boundary, never mid-metric.
func (s *Server) queryStats(_ *volume, req *request, _, _, count uint32) {
	snap := s.metrics.Serialize()
	total := uint32(len(snap))
	if uint32(len(snap)) > count {
		cut := int(count)
		for cut > 0 && snap[cut-1] != '\n' {
			cut--
		}
		snap = snap[:cut]
	}
	m := buildReply(StatusOK, uint32(len(snap)))
	stampStatsReply(&m, uint32(len(snap)), total)
	if err := s.proc.ReplyWithSegment(&m, req.src, 0, snap); err != nil {
		s.replyStatus(req.src, StatusBadRequest, 0)
	}
}

// queryVolumes answers OpQueryVolumes: the volume ids this server OWNS
// (is primary for) — replica-hosted volumes are not ownership, so the
// cluster map stays one-server-per-volume.
func (s *Server) queryVolumes(_ *volume, req *request, _, _, count uint32) {
	var ids []uint32
	for _, id := range s.Volumes() {
		if s.volumes[id].role.Load() == rolePrimary {
			ids = append(ids, id)
		}
	}
	s.replyIDs(req.src, encodeIDs(ids, count))
}

// replyIDs answers with an id list laid out by encodeIDs: the count in
// reply word 2, the ids in the client's granted segment.
func (s *Server) replyIDs(src ipc.Pid, seg []byte) {
	if len(seg) == 0 {
		s.replyStatus(src, StatusOK, 0)
		return
	}
	reply := buildReply(StatusOK, uint32(len(seg)/4))
	if err := s.proc.ReplyWithSegment(&reply, src, 0, seg); err != nil {
		s.replyStatus(src, StatusBadRequest, 0)
	}
}

// replyStatus answers an exchange with a bare status reply.
func (s *Server) replyStatus(src ipc.Pid, status, count uint32) {
	if status == StatusBadRequest {
		s.stats.badRequests.Add(1)
	}
	m := buildReply(status, count)
	_ = s.proc.Reply(&m, src)
}

// replyWritten acknowledges a successful write, carrying the post-write
// cache version when the file is version-tracked so a caching writer
// keeps its own view current (see proto.go).
func (s *Server) replyWritten(src ipc.Pid, count, version uint32, tracked bool) {
	m := buildReply(StatusOK, count)
	if tracked {
		stampVersion(&m, version)
	}
	_ = s.proc.Reply(&m, src)
}

func statusFor(err error) uint32 {
	if err == ErrNoFile {
		return StatusNoFile
	}
	return StatusIOError
}

// getBlock returns the block through the cache, zero-padded to a full
// block, with a reference for the caller (Release when done) and the
// block's valid-byte extent. The block's bytes are shared and must not be
// written. The miss fill is generation-stamped, from before the cache is
// asked, so a concurrent write racing the store read cannot leave stale
// (pre-write, pre-flush) bytes cached (see blockCache). Only a page read
// (page) caches its fill or a block only an extent holds; the old image
// around a write's payload does neither. A file that exists
// only as staged, still-unflushed blocks reads as zeros outside them —
// those blocks are holes the flusher has not yet materialized.
func (s *Server) getBlock(v *volume, file, block uint32, page bool) (*bufpool.Buf, int, error) {
	id := blockID{file: file, block: block}
	gen := v.cache.snapshot(id)
	if b, end, ok := v.cache.getEnd(id, page); ok {
		return b, end, nil
	}
	b := bufpool.Get(s.cfg.BlockSize)
	n, err := s.readStore(v, file, b.Data, int64(block)*int64(s.cfg.BlockSize))
	if err != nil {
		b.Release()
		return nil, 0, err
	}
	if page {
		v.cache.put(id, b, gen, n)
	}
	return b, n, nil
}

// readStore fills p from the store at off and returns the in-file byte
// count. A file that exists only as staged, still-unflushed blocks reads
// as zeros: the store does not have it yet.
func (s *Server) readStore(v *volume, file uint32, p []byte, off int64) (int, error) {
	// Snapshot the staged size BEFORE the store read: if the file's first
	// flush creates the store file mid-read, checking afterwards would see
	// ErrNoFile from the store and no staged bytes either — a spurious
	// no-such-file for a file that existed throughout.
	staged := v.cache.stagedSize(file)
	n, err := v.store.ReadAt(file, p, off)
	if err == ErrNoFile && staged > 0 {
		clear(p)
		return 0, nil
	}
	return n, err
}

// sizeOf is the file size as clients must observe it: the store size
// raised to the staged write high-water mark, so unflushed write-behind
// extensions are visible to queries and reads immediately.
func (s *Server) sizeOf(v *volume, file uint32) (int64, error) {
	staged := v.cache.stagedSize(file)
	size, err := v.store.Size(file)
	if err != nil {
		if err == ErrNoFile && staged > 0 {
			return staged, nil
		}
		return 0, err
	}
	if staged > size {
		size = staged
	}
	return size, nil
}

// pageRead serves OpReadBlock: the page travels in the reply packet
// (ReplyWithSegment), one Send/Reply exchange total. The cache block is
// lent for the reply encode — the page is copied exactly once, from
// cache memory into the pooled wire frame.
func (s *Server) pageRead(v *volume, req *request, file, block, count uint32) {
	if count > uint32(s.cfg.BlockSize) {
		s.replyStatus(req.src, StatusBadRequest, 0)
		return
	}
	b, _, err := s.getBlock(v, file, block, true)
	if err != nil {
		s.replyStatus(req.src, statusFor(err), 0)
		return
	}
	s.stats.bytesRead.Add(int64(count))
	reply := buildReply(StatusOK, count)
	err = s.proc.ReplyWithSegment(&reply, req.src, 0, b.Data[:count])
	b.Release()
	if err != nil {
		// The client's grant was missing or too small: answer without data.
		s.replyStatus(req.src, StatusBadRequest, 0)
	}
}

// pageWrite serves OpWriteBlock, the one-block case of a large write: at
// most a page, at byte offset block·BlockSize.
func (s *Server) pageWrite(v *volume, req *request, file, block, count uint32) {
	off := uint64(block) * uint64(s.cfg.BlockSize)
	if count > uint32(s.cfg.BlockSize) || off > math.MaxUint32 {
		s.replyStatus(req.src, StatusBadRequest, 0)
		return
	}
	s.largeWrite(v, req, file, uint32(off), count)
}

// stage stages a write's pulled train b, the images of blocks first,
// first+1, ... of file back to back, whose payload starts at payStart in
// the head block and ends at payEnd in the tail block, as one extent; a
// page write's block (page) is cached as a page besides. A
// block the payload does not cover keeps the rest of its old image,
// fetched here with its generation snapshotted before the fetch; when
// the cache finds an image stale (errStaleSpare) the rest of the train is
// fetched and staged again. A store read failure other than ErrNoFile
// fails the write — zero-filling over unknown-but-existing bytes would
// let a transient read error destroy store data on the next flush. Plain
// ErrNoFile means the block genuinely has no prior contents and zeros
// are correct.
func (s *Server) stage(v *volume, file, first uint32, b *bufpool.Buf, payStart, payEnd int, trace uint32, page bool) error {
	bs := s.cfg.BlockSize
	off, n := 0, uint32(len(b.Data)/bs)
	for {
		var head, tail spare
		var err error
		if payStart > 0 || (n == 1 && payEnd < bs) {
			head, err = s.fetchSpare(v, file, first)
		}
		if err == nil && n > 1 && payEnd < bs {
			tail, err = s.fetchSpare(v, file, first+n-1)
		}
		k := uint32(0)
		if err == nil {
			k, err = v.cache.stageExtent(file, first, b, off, n, payStart, payEnd, head, tail, trace, page)
		}
		head.buf.Release()
		tail.buf.Release()
		if err != errStaleSpare {
			return err
		}
		if k > 0 {
			first, off, n, payStart = first+k, off+int(k)*bs, n-k, 0
		}
	}
}

// fetchSpare returns a block's current image for a stage that covers it
// only in part.
func (s *Server) fetchSpare(v *volume, file, block uint32) (spare, error) {
	sp := spare{gen: v.cache.snapshot(blockID{file: file, block: block})}
	b, end, err := s.getBlock(v, file, block, false)
	if err == nil {
		sp.buf, sp.end = b, end
	} else if err == ErrNoFile {
		err = nil // no prior contents; the gaps are zeros
	}
	return sp, err
}

// maxTrain is the most one MoveTo/MoveFrom of a large transfer moves: a
// request of up to 64 KB is one §3.3 packet train with one
// acknowledgement, the largest transfer unit of Table 6-3 (the paper's
// VAX server could buffer only 4 KB at a time; its cost per kilobyte kept
// falling up to 64).
const maxTrain = 64 << 10

// largeRead serves OpReadLarge: count bytes from byte offset off, moved
// into the client's granted buffer in trains of up to maxTrain (§6.3
// program loading). Each train is one MoveToVec of views laid out by
// gather, so the bytes are copied exactly once, into the wire frames;
// the last (often only) train is a ReplyWithSegmentVec instead, the
// reply right behind it. The views stay borrowed until the train has
// moved; a concurrent write replaces a cache entry but cannot recycle a
// lent block. The reply reports how many bytes the file actually held.
func (s *Server) largeRead(v *volume, req *request, file, off, count uint32) {
	size, err := s.sizeOf(v, file)
	if err != nil {
		s.replyStatus(req.src, statusFor(err), 0)
		return
	}
	n := count
	if int64(off) >= size {
		n = 0
	} else if int64(off)+int64(n) > size {
		n = uint32(size - int64(off))
	}
	if n == 0 {
		s.replyStatus(req.src, StatusOK, 0)
		return
	}
	for done := uint32(0); ; {
		m := min(n-done, maxTrain)
		status := StatusBadRequest
		err := s.gather(v, req, file, off+done, m)
		if err != nil {
			status = statusFor(err)
		} else if done+m < n {
			err = s.proc.MoveToVec(req.src, done, req.parts...)
		} else {
			reply := buildReply(StatusOK, n)
			err = s.proc.ReplyWithSegmentVec(&reply, req.src, done, req.parts...)
		}
		for _, b := range req.held {
			b.Release() // the moves borrow only for the duration of the call
		}
		if err != nil {
			s.replyStatus(req.src, status, done) // fails if the reply went out
			return
		}
		if done += m; done == n {
			s.stats.bytesRead.Add(int64(n))
			return
		}
	}
}

// gather lays out the train of m bytes at file position pos as
// req.parts, views into the buffers it borrows into req.held for the
// caller to release. Blocks the cache holds, cached pages and blocks of
// staged extents alike, are lent as they are, so a streamed read sees
// staged writes.
// Each maximal run of blocks it does not hold is one store read into the
// train's pooled run buffer, and what that read fetched is not cached: a
// large read would otherwise evict the page working set for blocks
// nobody reads again, which a FileStore already keeps in the OS page
// cache.
func (s *Server) gather(v *volume, req *request, file, pos, m uint32) error {
	bs := uint32(s.cfg.BlockSize)
	// views[i] is the train's i'th block if the cache lent it, else nil.
	first := pos / bs
	n := int((pos+m-1)/bs - first + 1)
	req.views, req.parts = slices.Grow(req.views[:0], n)[:n], req.parts[:0]
	req.held = v.cache.lend(file, first, req.views, req.held[:0])
	var run []byte // the train's uncached bytes, each at its train offset
	for at := uint32(0); at < m; {
		// Step forward to the next cached block; [lo, at) is the run of
		// misses before it, and at == m means there is none.
		lo := at
		var hit []byte
		for ; at < m; at = min(m, at+bs-(pos+at)%bs) {
			if b := req.views[(pos+at)/bs-first]; b != nil {
				hit = b
				break
			}
		}
		if at > lo {
			if run == nil {
				b := bufpool.Get(int(m))
				req.held = append(req.held, b)
				run = b.Data
			}
			if _, err := s.readStore(v, file, run[lo:at], int64(pos)+int64(lo)); err != nil {
				return err
			}
			req.parts = append(req.parts, run[lo:at])
		}
		if hit != nil {
			in := (pos + at) % bs
			end := min(m, at+bs-in)
			req.parts = append(req.parts, hit[in:in+end-at])
			at = end
		}
	}
	return nil
}

// largeWrite serves OpWriteLarge, and OpWriteBlock through pageWrite:
// count bytes at byte offset off, in trains of up to maxTrain. The first
// bytes arrived inline with the Send (§3.4); writeTrain pulls the rest.
// Each train is staged in the cache as an extent and logged as one
// replication record before the next is pulled; the write is
// acknowledged once the in-sync replicas hold the last record, and the
// flushers write the blocks back asynchronously (§6.2's server-side
// write buffering).
func (s *Server) largeWrite(v *volume, req *request, file, off, count uint32) {
	if uint64(off)+uint64(count) > 1<<32 {
		// Offsets are 32-bit on the wire and in replication records.
		s.replyStatus(req.src, StatusBadRequest, 0)
		return
	}
	var seq uint32
	if count == 0 {
		// Nothing to defer: go to the store so the file is created or
		// extended there — staging an empty block would raise the
		// staged size only until its (empty) flush pruned it again.
		if err := v.store.WriteAt(file, nil, int64(off)); err != nil {
			s.replyStatus(req.src, StatusIOError, 0)
			return
		}
		seq = s.replicateAppend(v, repKindWrite, file, off, req.trace)
	}
	for done := uint32(0); done < count; {
		m := min(count-done, maxTrain)
		var status uint32
		if seq, status = s.writeTrain(v, req, file, off+done, done, m); status != StatusOK {
			s.replyStatus(req.src, status, done)
			return
		}
		done += m
	}
	s.stats.bytesWrite.Add(int64(count))
	bs := uint32(s.cfg.BlockSize)
	first, nblocks := off/bs, uint32(0)
	if count > 0 {
		nblocks = (off+count-1)/bs - first + 1
	}
	// The blocks are staged (readable by everyone through this server), so
	// other clients' cached copies go stale NOW: call them back while the
	// replicas apply the write, and wait for both before the writer learns
	// its write completed.
	fan, ver, tracked := s.registry.invalidateStart(v.id, file, first, nblocks, req.src, req.trace)
	s.replicateCommit(v, seq)
	s.registry.wait(&fan)
	s.replyWritten(req.src, count, ver, tracked)
}

// writeTrain lands the train of m bytes at file position pos, which is
// byte done of the client's segment, in one pooled buffer of the
// whole-block images it touches: the train's share of the inline prefix
// is copied in and the rest taken with one MoveFromVec — for the first
// train out of the push the kernel landed, later straight off the wire.
// The train is then staged in one call, head and tail blocks
// completed from the old image, and logged as one replication record.
// It returns the record's sequence and the write's status.
func (s *Server) writeTrain(v *volume, req *request, file, pos, done, m uint32) (uint32, uint32) {
	bs := uint32(s.cfg.BlockSize)
	in := pos % bs
	b := bufpool.Get(int((in+m-1)/bs+1) * int(bs))
	pay := b.Data[in : in+m]
	pre := uint32(req.inline)
	k := uint32(copy(pay, req.buf[min(done, pre):min(done+m, pre)]))
	status := StatusOK
	if k < m {
		req.parts = append(req.parts[:0], pay[k:])
		if err := s.proc.MoveFromVec(req.src, done+k, req.parts...); err != nil {
			status = StatusBadRequest
		}
	}
	if status == StatusOK {
		page := reqOp(&req.msg) == OpWriteBlock
		if err := s.stage(v, file, pos/bs, b, int(in), int((pos+m-1)%bs+1), req.trace, page); err != nil {
			status = StatusIOError
		}
	}
	var seq uint32
	if status == StatusOK {
		// Log before the buffer goes back: append copies the payload.
		req.parts = append(req.parts[:0], pay)
		seq = s.replicateAppend(v, repKindWrite, file, pos, req.trace, req.parts...)
	}
	b.Release()
	return seq, status
}
