package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"
)

// The cost ladder is the paper's method (§4–§6) applied to this
// runtime: measure the bare network penalty first, then each layer from
// the outside in. A rung times serial, single-caller round trips through
// one layer's public functions; the layer's own cost is its rung minus
// the rung below it. Rungs run fixed iteration counts, not timed
// windows, and report the median of five batches.

const ladderBatches = 5

// Iteration counts per batch at scale 1, by how long one round trip is.
const (
	itersMemory = 200000 // tens of ns: codec, pool, in-memory store and cache
	itersRTT    = 1500   // tens of µs: anything crossing a socket
	itersBulk   = 150    // hundreds of µs: 64 KB transfers
)

// rungSpec is one ladder entry.
type rungSpec struct {
	name   string
	perUs  bool // report µs per round trip, not ns
	iters  int
	allocs string // when set, also report process-wide mallocs per round trip under this name
	build  func() (rung, error)
}

// timeBatch runs iters round trips and returns ns per round trip.
func timeBatch(r rung, iters int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := r.op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters), nil
}

// mallocs is the process-wide count of heap allocations so far: both
// ends of a rung run in this process, so a delta covers client, server
// and transport together.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureRung warms the rung up, runs its batches and returns the median
// ns per round trip and the mallocs per round trip over all batches.
func measureRung(r rung, iters int) (nsPerOp, allocsPerOp float64, err error) {
	if _, err := timeBatch(r, iters/10+10); err != nil {
		return 0, 0, err
	}
	before := mallocs()
	batches := make([]float64, ladderBatches)
	for b := range batches {
		if batches[b], err = timeBatch(r, iters); err != nil {
			return 0, 0, err
		}
	}
	return median(batches), float64(mallocs()-before) / float64(iters*ladderBatches), nil
}

// rungWire is the floor every other rung is read against: two raw
// net.UDPConn on loopback, a 64-byte datagram out and reply bytes back.
func rungWire(reply int) (rung, error) {
	listen := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	a, err := listen()
	if err != nil {
		return rung{}, err
	}
	b, err := listen()
	if err != nil {
		a.Close()
		return rung{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		out := make([]byte, reply)
		for {
			_, from, err := b.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if _, err := b.WriteToUDP(out, from); err != nil {
				return
			}
		}
	}()
	req := make([]byte, 64)
	in := make([]byte, 2048)
	dst := b.LocalAddr().(*net.UDPAddr)
	// One deadline for the whole rung: a lost datagram ends the run with
	// an error instead of hanging it, at no per-round-trip cost.
	if err := a.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
		a.Close()
		b.Close()
		return rung{}, err
	}
	return rung{
		op: func() error {
			if _, err := a.WriteToUDP(req, dst); err != nil {
				return err
			}
			_, _, err := a.ReadFromUDP(in)
			return err
		},
		close: func() {
			a.Close()
			b.Close()
			<-done
		},
	}, nil
}

// rungStore times one 512-byte Store call made directly.
func rungStore(st blockStore, write bool) (rung, error) {
	const pages = 256
	page := make([]byte, pageSize)
	if err := st.Create(1, pages*pageSize); err != nil {
		return rung{}, err
	}
	for p := 0; p < pages; p++ {
		if err := st.WriteAt(1, page, int64(p)*pageSize); err != nil {
			return rung{}, err
		}
	}
	i := 0
	return rung{
		op: func() error {
			i++
			off := int64(i%pages) * pageSize
			if write {
				return st.WriteAt(1, page, off)
			}
			_, err := st.ReadAt(1, page, off)
			return err
		},
		close: func() { st.Close() },
	}, nil
}

// fileRung describes a rung that drives a file client against a small
// cluster of its own.
type fileRung struct {
	mem      bool // in-memory mesh instead of loopback UDP
	routed   bool // NewVolumeClient through a Router instead of a fixed pid
	replicas int  // in-sync replicas of the volume (on a second shard)
	pages    int  // file size
	cache    int  // server cache blocks
	watcher  bool // a caching client on another node is registered on the file
	caching  bool // the measured client is itself a caching client
	op       func(cl fileClient, i int, page, chunk []byte) error
}

// ladderVolume is DefaultVolume: the fixed-pid client addresses no
// other.
const ladderVolume = 0

// residentPages and residentCache size a file that stays in the server
// cache; missPages and missCache one that never does (a cyclic scan of a
// file 128 times the cache misses every time).
const (
	residentPages = 2048
	residentCache = 4096
	missPages     = 8192
	missCache     = 64
)

func (f fileRung) build() (rung, *benchCluster, error) {
	shards := 1 + f.replicas
	spec := clusterSpec{shards: shards, volumes: []uint32{ladderVolume}, replicas: f.replicas, cacheBlocks: f.cache, mem: f.mem}
	if f.watcher {
		// The watcher registers once; its lease must outlive the rung.
		spec.cacheLease = 10 * time.Minute
	}
	cluster, err := startCluster(spec)
	if err != nil {
		return rung{}, nil, err
	}
	fail := func(err error) (rung, *benchCluster, error) {
		cluster.close()
		return rung{}, nil, err
	}
	if f.replicas > 0 {
		if err := cluster.waitInSync([]uint32{ladderVolume}, int64(f.replicas), 10*time.Second); err != nil {
			return fail(err)
		}
	}
	node, err := cluster.newClientNode()
	if err != nil {
		return fail(err)
	}
	var cl fileClient
	switch {
	case f.caching:
		ccs, err := node.cachingSet("ladder", []uint32{ladderVolume}, 0, false)
		if err != nil {
			return fail(err)
		}
		cl = ccs[0]
	case f.routed:
		cl, err = node.routed("ladder", ladderVolume)
	default:
		cl, err = node.fixed("ladder", 0)
	}
	if err != nil {
		return fail(err)
	}
	if err := populate(cl, 1, f.pages*pageSize); err != nil {
		return fail(err)
	}
	if err := cl.Sync(0); err != nil {
		return fail(err)
	}
	if f.pages <= f.cache {
		if err := warmPages(cl, 1, f.pages); err != nil {
			return fail(err)
		}
	}
	if f.watcher {
		other, err := cluster.newClientNode()
		if err != nil {
			return fail(err)
		}
		ccs, err := other.cachingSet("watcher", []uint32{ladderVolume}, 0, false)
		if err != nil {
			return fail(err)
		}
		if _, err := ccs[0].ReadBlock(1, 0, make([]byte, pageSize)); err != nil {
			return fail(err)
		}
	}
	page := make([]byte, pageSize)
	chunk := make([]byte, chunkSize)
	i := 0
	return rung{
		op: func() error {
			i++
			return f.op(cl, i, page, chunk)
		},
		close: cluster.close,
	}, cluster, nil
}

func (f fileRung) rung() (rung, error) {
	r, _, err := f.build()
	return r, err
}

func readPage(pages int) func(fileClient, int, []byte, []byte) error {
	return func(cl fileClient, i int, page, _ []byte) error {
		n, err := cl.ReadBlock(1, uint32(i%pages), page)
		if err == nil && n != pageSize {
			err = fmt.Errorf("short page read: %d bytes", n)
		}
		return err
	}
}

func writePage(cl fileClient, i int, page, _ []byte) error {
	return cl.WriteBlock(1, uint32(i%residentPages), page)
}

// chunksResident is how many 64 KB chunks the resident file holds.
const chunksResident = residentPages * pageSize / chunkSize

func readChunk(cl fileClient, i int, _, chunk []byte) error {
	n, err := cl.ReadLarge(1, uint32(i%chunksResident*chunkSize), chunk)
	if err == nil && n != chunkSize {
		err = fmt.Errorf("short 64 KB read: %d bytes", n)
	}
	return err
}

func writeChunk(cl fileClient, i int, _, chunk []byte) error {
	return cl.WriteLarge(1, uint32(i%chunksResident*chunkSize), chunk)
}

// hit is the common rung shape: a fixed-pid client over loopback UDP
// against a file resident in the server cache.
func hit(op func(fileClient, int, []byte, []byte) error) fileRung {
	return fileRung{pages: residentPages, cache: residentCache, op: op}
}

func ladderRungs(tmp string) []rungSpec {
	exchange := func(kind string, ex exchangeKind) func() (rung, error) {
		return func() (rung, error) { return rungNodeExchange(kind, ex) }
	}
	echo := func(kind string, reply int) func() (rung, error) {
		return func() (rung, error) { return rungTransportEcho(kind, reply) }
	}
	fileStore := func(write bool) func() (rung, error) {
		return func() (rung, error) {
			st, err := newFileStore(tmp)
			if err != nil {
				return rung{}, err
			}
			return rungStore(st, write)
		}
	}
	plain := func(r rung) func() (rung, error) { return func() (rung, error) { return r, nil } }
	hitMem, routed := hit(readPage(residentPages)), hit(readPage(residentPages))
	hitMem.mem, routed.routed = true, true
	repl, inval, cclient := hit(writePage), hit(writePage), hit(func(cl fileClient, _ int, page, _ []byte) error {
		_, err := cl.ReadBlock(1, 1, page)
		return err
	})
	repl.replicas, inval.watcher, cclient.caching = 1, true, true

	return []rungSpec{
		{name: "wire.rtt_small_ns", iters: itersRTT, build: func() (rung, error) { return rungWire(64) }},
		{name: "wire.rtt_page_ns", iters: itersRTT, build: func() (rung, error) { return rungWire(64 + pageSize) }},
		{name: "vproto.codec_small_ns", iters: itersMemory, build: plain(rungCodec(0))},
		{name: "vproto.codec_page_ns", iters: itersMemory, build: plain(rungCodec(pageSize))},
		{name: "bufpool.get_release_ns", iters: itersMemory, build: plain(rungBufpool())},
		{name: "ipc.udp.echo_small_ns", iters: itersRTT, build: echo(transportPlainUDP, 0)},
		{name: "ipc.udp.echo_page_ns", iters: itersRTT, build: echo(transportPlainUDP, pageSize)},
		{name: "ipc.batched.echo_small_ns", iters: itersRTT, build: echo(transportBatched, 0)},
		{name: "ipc.batched.echo_page_ns", iters: itersRTT, build: echo(transportBatched, pageSize)},
		{name: "ipc.node.exchange_mem_ns", iters: itersRTT, build: exchange(transportMemMesh, exchangePlain)},
		{name: "ipc.node.exchange_udp_ns", iters: itersRTT, allocs: "ipc.node.exchange_udp_allocs", build: exchange(transportPlainUDP, exchangePlain)},
		{name: "ipc.node.exchange_batched_ns", iters: itersRTT, build: exchange(transportBatched, exchangePlain)},
		{name: "ipc.node.reply_seg_page_mem_ns", iters: itersRTT, build: exchange(transportMemMesh, exchangeReplySeg)},
		{name: "ipc.node.reply_seg_page_udp_ns", iters: itersRTT, build: exchange(transportPlainUDP, exchangeReplySeg)},
		{name: "ipc.node.moveto_64k_us", perUs: true, iters: itersBulk, build: exchange(transportPlainUDP, exchangeMoveTo)},
		{name: "ipc.node.movefrom_64k_us", perUs: true, iters: itersBulk, build: exchange(transportPlainUDP, exchangeMoveFrom)},
		{name: "rfs.store.mem_read_ns", iters: itersMemory, build: func() (rung, error) { return rungStore(newMemStore(), false) }},
		{name: "rfs.store.file_read_ns", iters: itersMemory / 10, build: fileStore(false)},
		{name: "rfs.store.file_write_ns", iters: itersMemory / 10, build: fileStore(true)},
		{name: "rfs.client.read_hit_mem_ns", iters: itersRTT, build: hitMem.rung},
		{name: "rfs.client.read_miss_udp_ns", iters: itersRTT, build: fileRung{pages: missPages, cache: missCache, op: readPage(missPages)}.rung},
		{name: "rfs.client.write_udp_ns", iters: itersRTT, allocs: "rfs.client.write_udp_allocs", build: hit(writePage).rung},
		{name: "rfs.client.read_64k_udp_us", perUs: true, iters: itersBulk, allocs: "rfs.client.read_64k_udp_allocs", build: hit(readChunk).rung},
		{name: "rfs.client.write_64k_udp_us", perUs: true, iters: itersBulk, allocs: "rfs.client.write_64k_udp_allocs", build: hit(writeChunk).rung},
		{name: "rfs.router.read_hit_udp_ns", iters: itersRTT, build: routed.rung},
		{name: "rfs.repl.write_udp_ns", iters: itersRTT, build: repl.rung},
		{name: "rfs.inval.write_udp_ns", iters: itersRTT, build: inval.rung},
		{name: "rfs.ccache.get_ns", iters: itersMemory, build: func() (rung, error) { return rungCcache(), nil }},
		{name: "rfs.cclient.read_hit_ns", iters: itersMemory, build: cclient.rung},
	}
}

// runLadder measures every rung and the two figures derived from them.
func runLadder(scale float64, tmpBase string, logf func(string, ...any)) (map[string]float64, error) {
	tmp, err := scratchDir(tmpBase)
	if err != nil {
		return nil, harnessf("ladder scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	scaled := func(n int) int {
		if n = int(float64(n) * scale); n < 10 {
			n = 10
		}
		return n
	}
	out := map[string]float64{}
	rungs := ladderRungs(tmp)
	// The first rung would otherwise pay for waking the host up (after
	// an idle spell its first batches ran twice as slow as the same rung
	// run again): run it unrecorded for a third of a second first.
	if r, err := rungs[0].build(); err == nil {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			if _, err := timeBatch(r, scaled(rungs[0].iters)); err != nil {
				break
			}
		}
		r.close()
	}
	for _, rs := range rungs {
		r, err := rs.build()
		if err != nil {
			return nil, harnessf("ladder rung %s: %w", rs.name, err)
		}
		ns, allocs, err := measureRung(r, scaled(rs.iters))
		r.close()
		if err != nil {
			return nil, harnessf("ladder rung %s: %w", rs.name, err)
		}
		if rs.perUs {
			ns /= 1e3
		}
		out[rs.name] = ns
		if rs.allocs != "" {
			out[rs.allocs] = allocs
		}
	}

	// read_hit_udp is measured together with its timing-on twin, batches
	// interleaved on one cluster, so that the difference is the
	// instrumentation and not two clusters' luck.
	r, cluster, err := hit(readPage(residentPages)).build()
	if err != nil {
		return nil, harnessf("ladder rung rfs.client.read_hit_udp_ns: %w", err)
	}
	iters := scaled(itersRTT)
	if _, err := timeBatch(r, iters/10+10); err != nil {
		r.close()
		return nil, harnessf("ladder rung rfs.client.read_hit_udp_ns: %w", err)
	}
	var off, on []float64
	var allocs uint64
	for round := 0; round < ladderBatches; round++ {
		for _, timing := range []bool{false, true} {
			for _, g := range cluster.registries() {
				g.setTiming(timing)
			}
			before := mallocs()
			ns, err := timeBatch(r, iters)
			if err != nil {
				r.close()
				return nil, harnessf("ladder rung rfs.client.read_hit_udp_ns: %w", err)
			}
			if timing {
				on = append(on, ns)
			} else {
				off = append(off, ns)
				allocs += mallocs() - before
			}
		}
	}
	r.close()
	out["rfs.client.read_hit_udp_ns"] = median(off)
	out["rfs.client.read_hit_udp_allocs"] = float64(allocs) / float64(iters*ladderBatches)
	out["obs.timing_on_delta_ns"] = median(on) - median(off)

	// The ladder reconciles if the client read over UDP is the ipc page
	// reply over UDP plus what the file service adds on the mesh.
	predicted := out["ipc.node.reply_seg_page_udp_ns"] + out["rfs.client.read_hit_mem_ns"] - out["ipc.node.reply_seg_page_mem_ns"]
	out["ladder.residual_pct"] = 100 * (out["rfs.client.read_hit_udp_ns"] - predicted) / out["rfs.client.read_hit_udp_ns"]

	if n := outstandingBuffers(); n != 0 {
		logf("ladder left %d pooled buffers outstanding", n)
	}
	return out, nil
}
