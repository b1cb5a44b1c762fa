// Command vnode runs a real V IPC node over UDP: either the V file
// server (internal/rfs, registered under the well-known fileserver
// logical id) or a diskless client that locates the server and exercises
// page reads, page writes and streamed large reads against it.
//
// Server, in-memory store:
//
//	vnode -host 2 -listen 127.0.0.1:4040 -serve
//
// Server, file-backed store:
//
//	vnode -host 2 -listen 127.0.0.1:4040 -serve -store /var/lib/vnode
//
// Server hosting two volumes of a sharded cluster:
//
//	vnode -host 2 -listen 127.0.0.1:4040 -serve -volumes 1,3
//
// Replicated pair: host 2 is volume 1's primary keeping one replica in
// sync, host 3 hosts that replica (volume:replica-id syntax) and
// promotes itself if the primary's lease lapses:
//
//	vnode -host 2 -listen 127.0.0.1:4040 -serve -volumes 1 -replicas 1
//	vnode -host 3 -listen 127.0.0.1:4041 -peer 2=127.0.0.1:4040 -serve -volumes 1:1
//
// Restarting a crashed primary into a cluster where a replica may have
// promoted (-rejoin demotes it to a replica instead of split-braining):
//
//	vnode -host 2 -listen 127.0.0.1:4040 -peer 3=127.0.0.1:4041 -serve -volumes 1 -replicas 1 -rejoin
//
// Client:
//
//	vnode -host 1 -listen 127.0.0.1:0 -peer 2=127.0.0.1:4040 -reads 1000 -large 65536
//
// Client addressing a specific volume through the name-service router:
//
//	vnode -host 1 -listen 127.0.0.1:0 -peer 2=127.0.0.1:4040 -peer 3=127.0.0.1:4041 -volume 3
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/rfs"
)

func main() {
	var (
		host        = flag.Int("host", 1, "logical host id of this node")
		listen      = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		peers       peerList
		metricsAddr = flag.String("metrics", "", "serve the node's metrics registry over HTTP at this address (expvar JSON at /debug/vars, pprof under /debug/pprof/); empty = off")
		timing      = flag.Bool("timing", false, "enable latency timing (per-op histograms); off by default so the hot paths cost one atomic load")
		slowOp      = flag.Duration("slowop", 0, "server: auto-capture a trace span for any request slower than this (implies -timing); 0 = off")
		serve       = flag.Bool("serve", false, "run the file server")
		volumes     = flag.String("volumes", "", "server: comma-separated volumes to host — 'id' for a primary, 'id:rid' for replica rid of volume id (empty = the single default volume)")
		nreplicas   = flag.Int("replicas", 0, "server: replicas each hosted primary keeps in sync (0 = replication off)")
		rejoin      = flag.Bool("rejoin", false, "server: primaries probe the name service first and demote to replicas if another server already owns the volume (restart after failover)")
		storeDir    = flag.String("store", "", "server: directory for the file-backed store (empty = in-memory)")
		cacheBlks   = flag.Int("cache", 1024, "server: block-cache capacity in blocks")
		dirtyBudget = flag.Int("dirtybudget", 0, "server: max staged-but-unflushed blocks (0 = default)")
		flushers    = flag.Int("flushers", 0, "server: write-behind flusher goroutines (0 = default)")
		lease       = flag.Duration("lease", 0, "server: client-cache registration lease (0 = default 2s)")
		fileID      = flag.Uint("file", 1, "client: file id to exercise")
		reads       = flag.Int("reads", 100, "client: number of page reads")
		writes      = flag.Int("writes", 0, "client: also time this many page writes (ends with a sync)")
		large       = flag.Int("large", 0, "client: also stream a large read of this many bytes")
		clientCache = flag.Bool("clientcache", false, "client: enable the local block cache with server-driven invalidation")
		ccBlocks    = flag.Int("ccblocks", 0, "client: local cache capacity in blocks (0 = default 256)")
		volumeID    = flag.Int("volume", -1, "client: route to this volume id via the name service (-1 = legacy single-server discovery)")
	)
	flag.Var(&peers, "peer", "host=addr peer entry; repeatable, and each may be a comma-separated list")
	flag.Parse()

	// One registry labels the whole node: transport, kernel and (when
	// serving) the file server all record into it, so one scrape — HTTP
	// expvar or a remote OpQueryStats — covers every layer.
	reg := obs.New()
	reg.SetNode(fmt.Sprintf("host%d", *host))
	if *timing {
		reg.SetTiming(true)
	}

	tr, err := ipc.NewUDPTransportConfig(*listen, ipc.UDPConfig{Metrics: reg})
	fatalIf(err)
	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, reg)
	}
	for _, spec := range peers {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			fatalIf(fmt.Errorf("bad -peer entry %q", spec))
		}
		h, err := strconv.Atoi(parts[0])
		fatalIf(err)
		addr, err := net.ResolveUDPAddr("udp", parts[1])
		fatalIf(err)
		tr.AddPeer(ipc.LogicalHost(h), addr)
	}
	node := ipc.NewNode(ipc.LogicalHost(*host), tr, ipc.NodeConfig{Metrics: reg})
	defer node.Close()
	fmt.Printf("vnode: host %d listening on %v\n", *host, tr.Addr())

	if *serve {
		runServer(node, *volumes, *storeDir, *nreplicas, *rejoin, rfs.Config{
			Metrics:     reg,
			SlowOp:      *slowOp,
			CacheBlocks: *cacheBlks,
			DirtyBudget: *dirtyBudget,
			Flushers:    *flushers,
			CacheLease:  *lease,
		})
		return
	}
	runClient(node, uint32(*fileID), *reads, *writes, *large, *clientCache, *ccBlocks, *volumeID)
}

// serveMetrics exposes the registry over HTTP: expvar JSON at
// /debug/vars (the registry published as "vkernel", plus the stdlib
// memstats/cmdline vars) and the pprof profiling endpoints under
// /debug/pprof/. A dedicated mux keeps the node off http.DefaultServeMux
// side effects.
func serveMetrics(addr string, reg *obs.Registry) {
	obs.Publish("vkernel", reg)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	fatalIf(err)
	fmt.Printf("vnode: metrics at http://%v/debug/vars (pprof under /debug/pprof/)\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
}

// peerList accumulates -peer flags: the flag is repeatable (the usage
// examples above pass it once per peer) and each occurrence may itself
// be a comma-separated host=addr list.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, e := range strings.Split(v, ",") {
		if e = strings.TrimSpace(e); e != "" {
			*p = append(*p, e)
		}
	}
	return nil
}

// volEntry is one parsed -volumes entry: a primary ('7') or a read
// replica ('7:2' — replica id 2 of volume 7).
type volEntry struct {
	id  uint32
	rid uint32 // 0 = primary
}

// parseVolumes turns the -volumes flag into volume entries. An empty
// flag means the pre-sharding shape: one server, one DefaultVolume.
func parseVolumes(spec string) []volEntry {
	if spec == "" {
		return []volEntry{{id: rfs.DefaultVolume}}
	}
	var out []volEntry
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		var e volEntry
		idPart, ridPart, isReplica := strings.Cut(f, ":")
		id, err := strconv.ParseUint(idPart, 10, 32)
		if err != nil {
			fatalIf(fmt.Errorf("bad -volumes entry %q: %w", f, err))
		}
		e.id = uint32(id)
		if isReplica {
			rid, err := strconv.ParseUint(ridPart, 10, 32)
			if err != nil || rid == 0 {
				fatalIf(fmt.Errorf("bad -volumes replica entry %q (want vol:rid with rid >= 1)", f))
			}
			e.rid = uint32(rid)
		}
		out = append(out, e)
	}
	return out
}

func runServer(node *ipc.Node, volumeSpec, storeDir string, nreplicas int, rejoin bool, cfg rfs.Config) {
	entries := parseVolumes(volumeSpec)
	vols := make([]rfs.VolumeSpec, 0, len(entries))
	var ids []uint32
	for _, e := range entries {
		ids = append(ids, e.id)
		var store rfs.Store
		if storeDir == "" {
			store = rfs.NewMemStore()
		} else {
			// Each copy is its own "disk": a subdirectory so two volumes
			// (or a primary and a replica of different volumes) never
			// alias the same backing files.
			name := fmt.Sprintf("vol%d", e.id)
			if e.rid != 0 {
				name = fmt.Sprintf("vol%d.r%d", e.id, e.rid)
			}
			fs, err := rfs.NewFileStore(filepath.Join(storeDir, name))
			fatalIf(err)
			store = fs
		}
		defer store.Close()
		spec := rfs.VolumeSpec{ID: e.id, Store: store}
		if e.rid != 0 {
			spec.Role = rfs.RoleReplica
			spec.ReplicaID = e.rid
		} else {
			spec.Replicas = nreplicas
			spec.Rejoin = rejoin && nreplicas > 0
		}
		vols = append(vols, spec)
	}
	if storeDir == "" {
		fmt.Printf("vnode: serving volumes %v from in-memory stores\n", ids)
	} else {
		fmt.Printf("vnode: serving volumes %v from per-volume stores under %s\n", ids, storeDir)
	}

	srv, err := rfs.StartVolumes(node, vols, cfg)
	fatalIf(err)
	defer srv.Close()
	fmt.Printf("vnode: file server %v registered as logical id %d, volumes at %d+id\n",
		srv.Pid(), rfs.LogicalFileServer, rfs.LogicalVolumeBase)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Printf("vnode: shutting down; server metrics: %s\n", metricLine(srv.Metrics(), "rfs."))
}

func runClient(node *ipc.Node, file uint32, reads, writes, large int, clientCache bool, ccBlocks, volumeID int) {
	proc, err := node.Attach("client")
	fatalIf(err)
	defer node.Detach(proc)

	// -volume routes through the name service (GetPid on the volume's
	// logical id, cached, re-resolved on failure); without it the client
	// binds to whichever single server Discover finds, as before.
	var client *rfs.Client
	var router *rfs.Router
	if volumeID >= 0 {
		router, err = rfs.NewRouter(node)
		fatalIf(err)
		defer router.Close()
		server, err := router.Resolve(uint32(volumeID))
		fatalIf(err)
		client = rfs.NewVolumeClient(proc, router, uint32(volumeID))
		fmt.Printf("vnode: routed volume %d -> %v\n", volumeID, server)
	} else {
		client, err = rfs.Discover(proc)
		fatalIf(err)
		fmt.Printf("vnode: resolved file server -> %v\n", client.Server())
	}

	// The page-op entry points: the plain stubs, or the caching client's
	// (local cache + invalidation callback process) with -clientcache.
	readPage, writePage := client.ReadBlock, client.WriteBlock
	var cc *rfs.CachingClient
	if clientCache {
		ccCfg := rfs.CacheClientConfig{Blocks: ccBlocks}
		if router != nil {
			cc, err = rfs.NewVolumeCachingClient(proc, router, uint32(volumeID), ccCfg)
		} else {
			cc, err = rfs.NewCachingClient(proc, client.Server(), ccCfg)
		}
		fatalIf(err)
		defer cc.Close()
		readPage, writePage = cc.ReadBlock, cc.WriteBlock
		fmt.Println("vnode: client block cache enabled (server-driven invalidation)")
	}

	// Seed one page so reads have something to hit, then time the page
	// fast path: one Send/Reply exchange per read (or a local cache hit
	// after the first miss with -clientcache).
	out := make([]byte, 512)
	for i := range out {
		out[i] = byte(i)
	}
	fatalIf(writePage(file, 0, out))

	in := make([]byte, 512)
	start := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := readPage(file, 0, in); err != nil {
			fatalIf(err)
		}
	}
	per := time.Since(start) / time.Duration(max(reads, 1))
	fmt.Printf("vnode: %d page reads, %v/page\n", reads, per)

	if writes > 0 {
		start = time.Now()
		for i := 0; i < writes; i++ {
			fatalIf(writePage(file, uint32(i%256), out))
		}
		acked := time.Since(start)
		fatalIf(client.Sync(0))
		fmt.Printf("vnode: %d page writes acked in %v (%v/page), synced after %v\n",
			writes, acked, acked/time.Duration(writes), time.Since(start))
	}

	if large > 0 {
		image := make([]byte, large)
		for i := range image {
			image[i] = byte(i * 13)
		}
		fatalIf(client.WriteLarge(file, 0, image))
		buf := make([]byte, large)
		start = time.Now()
		n, err := client.ReadLarge(file, 0, buf)
		fatalIf(err)
		elapsed := time.Since(start)
		fmt.Printf("vnode: streamed %d-byte read in %v (%.1f MB/s)\n",
			n, elapsed, float64(n)/(1<<20)/elapsed.Seconds())
	}
	if cc != nil {
		fmt.Printf("vnode: client cache stats: %+v\n", cc.Stats())
	}
	fmt.Printf("vnode: node metrics: %s\n", metricLine(node.Metrics(), "ipc."))
}

// metricLine renders a registry's counters and gauges under prefix as
// one line of name=value pairs.
func metricLine(reg *obs.Registry, prefix string) string {
	var out []string
	add := func(name string, v int64) {
		if strings.HasPrefix(name, prefix) {
			out = append(out, fmt.Sprintf("%s=%d", name, v))
		}
	}
	reg.Do(add, add, nil)
	return strings.Join(out, " ")
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "vnode: %v\n", err)
		os.Exit(1)
	}
}
