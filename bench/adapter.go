package main

// adapter.go is the only file of the benchmark that touches
// vkernel/internal/...: every product identifier the benchmark depends
// on is called from here and nowhere else, so a change that renames,
// merges or deletes one of them has exactly one file to fix. The list of
// load-bearing names is kept in README.md.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/rfs"
	"vkernel/internal/rfs/ccache"
	"vkernel/internal/vproto"
)

// blockStore is the product's backing-store interface; the counting
// wrapper in countstore.go implements it structurally.
type blockStore = rfs.Store

func newMemStore() blockStore { return rfs.NewMemStore() }

func newFileStore(dir string) (blockStore, error) { return rfs.NewFileStore(dir) }

// outstandingBuffers is the pool's leak check: 0 once everything closed.
func outstandingBuffers() int64 { return bufpool.Outstanding() }

// fileClient is the stub surface the workloads drive. *rfs.Client and
// *rfs.CachingClient both satisfy it.
type fileClient interface {
	ReadBlock(file, block uint32, dst []byte) (int, error)
	WriteBlock(file, block uint32, data []byte) error
	ReadLarge(file, off uint32, dst []byte) (int, error)
	WriteLarge(file, off uint32, data []byte) error
	CreateFile(file, size uint32) error
	Sync(file uint32) error
	SetTrace(id uint32)
}

// clusterSpec is the part of rfs.ClusterConfig the benchmark varies.
// Everything else is the fixture's default, which is the point: what
// StartCluster builds is what gets measured.
type clusterSpec struct {
	shards      int
	volumes     []uint32
	replicas    int
	cacheBlocks int           // 0 → server default
	cacheLease  time.Duration // 0 → server default
	mem         bool          // in-memory mesh instead of loopback UDP (ladder rungs only)
	newStore    func(vol uint32) blockStore
}

// benchCluster is a running fixture plus everything attached to it, so
// one close tears it all down in dependency order.
type benchCluster struct {
	c       *rfs.Cluster
	nodes   []*clientNode
	caching []*rfs.CachingClient
}

// clientNode is one diskless workstation: an ipc node wired to every
// shard and the router its processes share.
type clientNode struct {
	b      *benchCluster
	node   *ipc.Node
	router *rfs.Router
	procs  []*ipc.Proc
}

func startCluster(spec clusterSpec) (*benchCluster, error) {
	cfg := rfs.ClusterConfig{
		Shards:   spec.shards,
		Volumes:  spec.volumes,
		Replicas: spec.replicas,
		UDP:      !spec.mem,
		Server:   rfs.Config{CacheBlocks: spec.cacheBlocks, CacheLease: spec.cacheLease},
	}
	if spec.newStore != nil {
		cfg.NewStore = func(vol uint32) rfs.Store { return spec.newStore(vol) }
	}
	c, err := rfs.StartCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &benchCluster{c: c}, nil
}

func (b *benchCluster) newClientNode() (*clientNode, error) {
	node, err := b.c.ClientNode()
	if err != nil {
		return nil, err
	}
	router, err := rfs.NewRouter(node)
	if err != nil {
		return nil, err
	}
	n := &clientNode{b: b, node: node, router: router}
	b.nodes = append(b.nodes, n)
	return n, nil
}

func (n *clientNode) attach(name string) (*ipc.Proc, error) {
	p, err := n.node.Attach(name)
	if err != nil {
		return nil, err
	}
	n.procs = append(n.procs, p)
	return p, nil
}

// routed returns a NewVolumeClient stub on a process of its own.
func (n *clientNode) routed(name string, vol uint32) (fileClient, error) {
	p, err := n.attach(name)
	if err != nil {
		return nil, err
	}
	return rfs.NewVolumeClient(p, n.router, vol), nil
}

// fixed returns a NewClient stub bound to one shard's server pid: no
// router, DefaultVolume (the cluster must host volume 0).
func (n *clientNode) fixed(name string, shard int) (fileClient, error) {
	p, err := n.attach(name)
	if err != nil {
		return nil, err
	}
	return rfs.NewClient(p, n.b.c.Servers[shard].Srv.Pid()), nil
}

// cachingClient is a NewVolumeCachingClient plus its counters.
type cachingClient struct {
	fileClient
	cc *rfs.CachingClient
}

// cacheStats returns the client cache's hits, misses and purges.
func (c *cachingClient) cacheStats() (hits, misses, purges int64) {
	st := c.cc.Stats()
	return st.Hits, st.Misses, st.Purges
}

// cachingSet attaches one process and binds one caching client per
// volume to it: one workstation program with several volumes open.
func (n *clientNode) cachingSet(name string, vols []uint32, blocks int, spread bool) ([]*cachingClient, error) {
	p, err := n.attach(name)
	if err != nil {
		return nil, err
	}
	var out []*cachingClient
	for _, vol := range vols {
		cc, err := rfs.NewVolumeCachingClient(p, n.router, vol, rfs.CacheClientConfig{Blocks: blocks})
		if err != nil {
			return nil, err
		}
		cc.SpreadReads(spread)
		n.b.caching = append(n.b.caching, cc)
		out = append(out, &cachingClient{fileClient: cc, cc: cc})
	}
	return out, nil
}

// close tears the fixture down: caching clients release their
// registrations while the servers still answer, then routers and
// processes detach, then the cluster closes nodes, servers and stores.
func (b *benchCluster) close() {
	for _, cc := range b.caching {
		cc.Close()
	}
	for _, n := range b.nodes {
		for _, p := range n.procs {
			n.node.Detach(p)
		}
		n.router.Close()
	}
	b.c.Close()
}

// registry is one node's metrics registry with the label the benchmark
// reports it under ("shard0", "client1").
type registry struct {
	label  string
	client bool
	r      *obs.Registry
}

// registries lists every shard's and every client node's registry.
func (b *benchCluster) registries() []registry {
	var out []registry
	for i, cs := range b.c.Servers {
		if cs.Srv != nil {
			out = append(out, registry{label: fmt.Sprintf("shard%d", i), r: cs.Srv.Metrics()})
		}
	}
	for i, n := range b.nodes {
		out = append(out, registry{label: fmt.Sprintf("client%d", i), client: true, r: n.node.Metrics()})
	}
	return out
}

func (g registry) setTiming(on bool) { g.r.SetTiming(on) }

// histStat is the part of obs.HistStat the benchmark reports.
type histStat struct{ count, p50, p99 int64 }

// scrape is one point-in-time read of a registry: counters and gauges
// in one map, histograms in another.
type scrape struct {
	values map[string]int64
	hists  map[string]histStat
}

func (g registry) scrape() scrape {
	s := scrape{values: map[string]int64{}, hists: map[string]histStat{}}
	set := func(name string, v int64) { s.values[name] = v }
	g.r.Do(set, set, func(name string, h obs.HistStat) {
		s.hists[name] = histStat{count: h.Count, p50: h.P50, p99: h.P99}
	})
	return s
}

// traceEvent is one span event a product node recorded in its ring.
type traceEvent struct {
	trace uint32
	node  string
	what  string
	end   time.Time
	dur   time.Duration
}

// events returns the registry's retained ring, oldest first.
func (g registry) events() []traceEvent {
	evs := g.r.Trace().Events()
	out := make([]traceEvent, len(evs))
	for i, e := range evs {
		out[i] = traceEvent{trace: e.Trace, node: g.label, what: e.What, end: e.When, dur: e.Dur}
	}
	return out
}

// Registry names the per-layer metrics are computed from. A name that a
// later change removes shows up as a missing value in the traced run
// (and a note on stderr), never as a failed run.
const (
	regNetSends       = "net.sends"
	regNetRecvs       = "net.recvs"
	regNetRecvBatches = "net.recv_batches" // present only on the batched transport
	regRetransmits    = "ipc.retransmits"
	regOverloadSheds  = "ipc.overload_sheds"
	regDups           = "ipc.dups_filtered"
	regExchangeHist   = "ipc.exchange_ns"
	regOpReadBlock    = "rfs.op.read_block"
	regOpWriteBlock   = "rfs.op.write_block"
	regOpReadLarge    = "rfs.op.read_large"
	regOpWriteLarge   = "rfs.op.write_large"
	regPageWrites     = "rfs.page_writes"
	regLargeWrites    = "rfs.large_writes"
	regReplApplied    = "rfs.repl_applied"
	regCallbacks      = "rfs.cache_callbacks"
	regCallbackErrs   = "rfs.cache_callback_errs"
	regCallbackTOs    = "rfs.cache_callback_timeouts"
	// Per-volume gauges are rfs.vol<id>.<suffix>.
	regVolPrefix       = "rfs.vol"
	regVolCacheHits    = ".cache_hits"
	regVolCacheMisses  = ".cache_misses"
	regVolFlushRuns    = ".flush_runs"
	regVolFlushedBlks  = ".flushed_blocks"
	regVolReplLag      = ".repl_lag"
	regVolReplInSync   = ".repl_insync"
	evFastRead         = "rfs.fast_read"
	evReadBlock        = "rfs.read_block"
	evReadLarge        = "rfs.read_large"
	evWriteBlock       = "rfs.write_block"
	evWriteLarge       = "rfs.write_large"
	transportBatched   = "batched"
	transportPlainUDP  = "udp"
	transportMemMesh   = "mem"
	transportUndefined = "unknown"
)

// volSum adds up one per-volume gauge over every volume in a scrape.
func (s scrape) volSum(suffix string) (sum int64, found bool) {
	for name, v := range s.values {
		if strings.HasPrefix(name, regVolPrefix) && strings.HasSuffix(name, suffix) {
			sum += v
			found = true
		}
	}
	return sum, found
}

// transportKind says which transport the fixture gave its shards, read
// off the counters that transport registered.
func (b *benchCluster) transportKind() string {
	if b.c.Mesh != nil {
		return transportMemMesh
	}
	for _, g := range b.registries() {
		if g.client {
			continue
		}
		s := g.scrape()
		if _, ok := s.values[regNetRecvBatches]; ok {
			return transportBatched
		}
		if _, ok := s.values[regNetSends]; ok {
			return transportPlainUDP
		}
	}
	return transportUndefined
}

// ---- ladder rungs below the file service -------------------------------

// rung is one ladder step: op is one round trip, close releases what the
// set-up built.
type rung struct {
	op    func() error
	close func()
}

// rungCodec times vproto.EncodeInto + DecodeInto of one packet carrying
// dataLen bytes.
func rungCodec(dataLen int) rung {
	pkt := vproto.Packet{
		Kind: vproto.KindReply,
		Seq:  7,
		Src:  vproto.MakePid(1, 1),
		Dst:  vproto.MakePid(2, 1),
		Data: make([]byte, dataLen),
	}
	frame := make([]byte, pkt.WireSize())
	var out vproto.Packet
	return rung{
		op: func() error {
			if _, err := pkt.EncodeInto(frame); err != nil {
				return err
			}
			return vproto.DecodeInto(&out, frame)
		},
		close: func() {},
	}
}

// rungBufpool times one Get + Release of a page-reply-sized frame.
func rungBufpool() rung {
	return rung{
		op: func() error {
			bufpool.Get(vproto.HeaderSize + vproto.MessageSize + pageSize).Release()
			return nil
		},
		close: func() {},
	}
}

// rungCcache times ccache.Get + Release of a resident block.
func rungCcache() rung {
	c := ccache.New(ccache.Config{})
	c.Insert(1, 1, make([]byte, c.BlockSize()), c.Snapshot(1, 1))
	return rung{
		op: func() error {
			b, ok := c.Get(1, 1)
			if !ok {
				return errors.New("ccache: resident block missing")
			}
			b.Release()
			return nil
		},
		close: c.Close,
	}
}

// wire is what the two UDP transports have in common beyond
// ipc.Transport.
type wire interface {
	ipc.Transport
	Addr() *net.UDPAddr
	AddPeer(host ipc.LogicalHost, addr *net.UDPAddr)
}

func newWire(kind string) (wire, error) {
	switch kind {
	case transportPlainUDP:
		return ipc.NewUDPTransport("127.0.0.1:0")
	case transportBatched:
		return ipc.NewBatchedUDPTransport("127.0.0.1:0", ipc.BatchConfig{})
	}
	return nil, fmt.Errorf("unknown transport %q", kind)
}

// wirePair opens two cross-wired transports of one kind for hosts 1, 2.
func wirePair(kind string) (a, b wire, err error) {
	if a, err = newWire(kind); err != nil {
		return nil, nil, err
	}
	if b, err = newWire(kind); err != nil {
		_ = a.Close()
		return nil, nil, err
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	return a, b, nil
}

// rungTransportEcho times two transports of one kind with no node on
// top: host 1 sends a 64-byte frame, host 2's handler answers with a
// frame carrying replyData bytes, host 1's handler wakes the caller.
func rungTransportEcho(kind string, replyData int) (rung, error) {
	a, b, err := wirePair(kind)
	if err != nil {
		return rung{}, err
	}
	encode := func(src, dst vproto.Pid, kind vproto.Kind, n int) []byte {
		pkt := vproto.Packet{Kind: kind, Seq: 1, Src: src, Dst: dst, Data: make([]byte, n)}
		frame := make([]byte, pkt.WireSize())
		if _, err := pkt.EncodeInto(frame); err != nil {
			panic(err) // sizes are constants of this file
		}
		return frame
	}
	pa, pb := vproto.MakePid(1, 1), vproto.MakePid(2, 1)
	req := encode(pa, pb, vproto.KindSend, 0)
	rep := encode(pb, pa, vproto.KindReply, replyData)
	got := make(chan struct{}, 1)
	b.SetHandler(func(*bufpool.Buf) { _ = b.Send(1, rep) })
	a.SetHandler(func(*bufpool.Buf) { got <- struct{}{} })
	return rung{
		op: func() error {
			if err := a.Send(2, req); err != nil {
				return err
			}
			<-got
			return nil
		},
		close: func() {
			_ = a.Close()
			_ = b.Close()
		},
	}, nil
}

// nodePair builds a client node (host 2) and a server node (host 1) on
// one transport kind.
func nodePair(kind string) (client, server *ipc.Node, closeFn func(), err error) {
	if kind == transportMemMesh {
		mesh := ipc.NewMemNetwork(1, ipc.FaultConfig{})
		server = ipc.NewNode(1, mesh.Transport(1), ipc.NodeConfig{})
		client = ipc.NewNode(2, mesh.Transport(2), ipc.NodeConfig{})
		return client, server, func() {
			_ = client.Close()
			_ = server.Close()
			mesh.Close()
		}, nil
	}
	s, c, err := wirePair(kind)
	if err != nil {
		return nil, nil, nil, err
	}
	server = ipc.NewNode(1, s, ipc.NodeConfig{})
	client = ipc.NewNode(2, c, ipc.NodeConfig{})
	return client, server, func() {
		_ = client.Close()
		_ = server.Close()
	}, nil
}

// exchangeKind selects what the server process of rungNodeExchange does
// between Receive and Reply.
type exchangeKind int

const (
	exchangePlain    exchangeKind = iota // 32-byte Send/Receive/Reply
	exchangeReplySeg                     // ReplyWithSegment of one page
	exchangeMoveTo                       // 64 KB MoveTo, then Reply
	exchangeMoveFrom                     // 64 KB MoveFrom, then Reply
)

// rungNodeExchange times one Send from a client process to a server
// process on another node, the server answering as ex says.
func rungNodeExchange(kind string, ex exchangeKind) (rung, error) {
	client, server, closeNodes, err := nodePair(kind)
	if err != nil {
		return rung{}, err
	}
	var (
		seg      *ipc.Segment
		payload  []byte
		serverWG sync.WaitGroup
	)
	switch ex {
	case exchangeReplySeg:
		seg = &ipc.Segment{Data: make([]byte, pageSize), Access: ipc.SegWrite}
		payload = make([]byte, pageSize)
	case exchangeMoveTo:
		seg = &ipc.Segment{Data: make([]byte, chunkSize), Access: ipc.SegWrite}
		payload = make([]byte, chunkSize)
	case exchangeMoveFrom:
		seg = &ipc.Segment{Data: make([]byte, chunkSize), Access: ipc.SegRead}
		payload = make([]byte, chunkSize)
	}
	serverWG.Add(1)
	sp, err := server.Spawn("ladder-server", func(p *ipc.Proc) {
		defer serverWG.Done()
		for {
			_, src, err := p.Receive()
			if err != nil {
				return
			}
			var reply ipc.Message
			switch ex {
			case exchangePlain:
				err = p.Reply(&reply, src)
			case exchangeReplySeg:
				err = p.ReplyWithSegment(&reply, src, 0, payload)
			case exchangeMoveTo:
				if err = p.MoveTo(src, 0, payload); err == nil {
					err = p.Reply(&reply, src)
				}
			case exchangeMoveFrom:
				// The first InlineSegMax bytes rode in the Send; a real
				// server pulls the rest, and so does this one.
				if err = p.MoveFrom(src, 0, payload); err == nil {
					err = p.Reply(&reply, src)
				}
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		closeNodes()
		return rung{}, err
	}
	cp, err := client.Attach("ladder-client")
	if err != nil {
		closeNodes()
		serverWG.Wait()
		return rung{}, err
	}
	dst := sp.Pid()
	return rung{
		op: func() error {
			var m ipc.Message
			return cp.Send(&m, dst, seg)
		},
		close: func() {
			client.Detach(cp)
			closeNodes()
			serverWG.Wait()
		},
	}, nil
}

// waitInSync blocks until every volume's primary counts want replicas
// in its in-sync set, polling the per-volume gauge (set-up only: the
// 10 ms poll never runs inside a measured window).
func (b *benchCluster) waitInSync(vols []uint32, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for _, vol := range vols {
			name := fmt.Sprintf("%s%d%s", regVolPrefix, vol, regVolReplInSync)
			for _, g := range b.registries() {
				if !g.client && g.scrape().values[name] >= want {
					ready++
					break
				}
			}
		}
		if ready == len(vols) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas not in sync after %v (%d of %d volumes ready)", timeout, ready, len(vols))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
