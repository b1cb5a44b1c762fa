package main

import (
	"fmt"
	"runtime"
)

// traceEvery is the stamping rate of the traced window: one op in 64
// carries a trace id and gets a client span.
const traceEvery = 64

// readCounters scrapes every registry and also returns each counter and
// gauge summed over all of them.
func readCounters(regs []registry) (map[string]int64, []scrape) {
	sum := map[string]int64{}
	scrapes := make([]scrape, len(regs))
	for i, g := range regs {
		scrapes[i] = g.scrape()
		for name, v := range scrapes[i].values {
			sum[name] += v
		}
	}
	return sum, scrapes
}

// layerMetrics computes the per-workload counts of the traced run from
// two reads of the registries.
type layerMetrics struct {
	out           map[string]float64
	logf          func(string, ...any)
	before, after map[string]int64 // summed over every shard and client node
}

// delta returns how much a counter grew over the window on all nodes
// together. A name no registry has is reported and makes the metrics
// built on it read missing.
func (m *layerMetrics) delta(name string) (float64, bool) {
	after, ok := m.after[name]
	if !ok {
		m.logf("registry key %q not found: metrics built on it read %v", name, missing)
		return 0, false
	}
	return float64(after - m.before[name]), true
}

// volDelta is delta for a per-volume gauge, summed over volumes.
func (m *layerMetrics) volDelta(suffix string, after, before []scrape) (float64, bool) {
	var sum int64
	found := false
	for i := range after {
		a, ok := after[i].volSum(suffix)
		if !ok {
			continue
		}
		b, _ := before[i].volSum(suffix)
		sum += a - b
		found = true
	}
	if !found {
		m.logf("registry keys %q<id>%s not found: metrics built on them read %v", regVolPrefix, suffix, missing)
	}
	return float64(sum), found
}

// ratio stores num/den under name; 0 when the denominator is 0 (nothing
// happened), missing when an input was not found.
func (m *layerMetrics) ratio(name string, num, den float64, ok bool) {
	switch {
	case !ok:
		m.out[name] = missing
	case den == 0:
		m.out[name] = 0
	default:
		m.out[name] = num / den
	}
}

// sumCacheStats adds up the client caches' hits, misses and purges.
func sumCacheStats(ccs []*cachingClient) (sum [3]int64) {
	for _, cc := range ccs {
		h, m, p := cc.cacheStats()
		sum[0] += h
		sum[1] += m
		sum[2] += p
	}
	return sum
}

// meanHist averages one histogram statistic over the registries where
// the histogram has samples.
func meanHist(regs []registry, scrapes []scrape, client bool, name string, pick func(histStat) int64) float64 {
	var sum float64
	n := 0
	for i, g := range regs {
		if g.client != client {
			continue
		}
		if h, ok := scrapes[i].hists[name]; ok && h.count > 0 {
			sum += float64(pick(h))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runTraced is the --trace 1 run: the ladder, then the traced workload.
// It reports every per-layer metric; one whose source is gone reads
// missing.
func runTraced(spec *workloadSpec, cfg runConfig) (*result, error) {
	out, err := runLadder(cfg.ladderScale, cfg.tmpBase, cfg.logf)
	if err != nil {
		return nil, err
	}
	res, err := tracedWorkload(spec, cfg, out)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			cfg.logf("per-layer metric %q was not produced: reads %v", d.name, missing)
			out[d.name] = missing
		}
	}
	return res, nil
}

// tracedWorkload runs the workload with an untraced half-window (the
// reference, and where the runtime counts are taken) followed by a
// traced half-window (registry timing on, one op in 64 stamped, rings
// drained, counters read before and after), and adds the per-workload
// counts and spans to out.
func tracedWorkload(spec *workloadSpec, cfg runConfig, out map[string]float64) (*result, error) {
	in, _, dir, err := setUp(spec, &cfg)
	if err != nil {
		return nil, err
	}
	regs := in.cluster.registries()
	transport := in.cluster.transportKind()
	penalty, err := newReference(spec.clients)
	if err != nil {
		in.close()
		return nil, err
	}
	defer penalty.close()
	runPhase(in.workers, phase{dur: cfg.warmup})
	penaltyBefore, err := penalty.burst()
	if err != nil {
		in.close()
		return nil, err
	}

	// Untraced half.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref := runPhase(in.workers, phase{dur: cfg.window / 2, record: true})
	runtime.ReadMemStats(&ms1)
	refOps := float64(ref.ops())
	if refOps == 0 {
		in.close()
		return nil, harnessf("no op completed in %v", cfg.window/2)
	}
	out["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / refOps
	out["runtime.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / refOps
	out["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	out["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// Traced half.
	tracers := make([]*tracer, len(in.workers))
	for i, w := range in.workers {
		tracers[i] = newTracer(i, traceEvery)
		w.setTracer(tracers[i])
	}
	for _, g := range regs {
		g.setTiming(true)
	}
	var lagMax int64
	col := startCollector(regs, func(s scrape) {
		if lag, ok := s.volSum(regVolReplLag); ok && lag > lagMax {
			lagMax = lag
		}
	})
	before, beforeScrapes := readCounters(regs)
	storesBefore := sumStores(in.stores)
	cacheBefore := sumCacheStats(in.caching)

	win := runPhase(in.workers, phase{dur: cfg.window / 2, record: true})

	after, afterScrapes := readCounters(regs)
	stores := sumStores(in.stores).sub(storesBefore)
	cacheAfter := sumCacheStats(in.caching)
	events := col.finish()
	for _, g := range regs {
		g.setTiming(false)
	}
	for _, w := range in.workers {
		w.setTracer(nil)
	}

	penaltyAfter, err := penalty.burst()
	if err != nil {
		in.close()
		return nil, err
	}
	attempted, failed, firstErr := finishRun(in)
	attempted, failed = attempted+ref.attempted+win.attempted, failed+ref.failed+win.failed
	for _, err := range []error{win.firstErr, ref.firstErr} {
		if err != nil {
			firstErr = err
		}
	}
	if err := tearDown(in, dir); err != nil {
		return nil, err
	}
	if firstErr != nil {
		cfg.logf("first failed op: %v", firstErr)
	}
	out["runtime.peak_rss_mb"] = peakRSSMB()
	// Per-layer metrics are raw clock readings; this says how fast the
	// host was around the two half-windows (see reference.go).
	out["host.factor"] = hostFactor(penaltyBefore, penaltyAfter)

	writes := len(win.writes)
	ops := float64(win.ops())
	m := &layerMetrics{out: out, logf: cfg.logf, before: before, after: after}

	sends, okS := m.delta(regNetSends)
	recvs, okR := m.delta(regNetRecvs)
	m.ratio("net.sends_per_op", sends, ops, okS)
	m.ratio("net.recvs_per_op", recvs, ops, okR)
	for name, key := range map[string]string{
		"ipc.retransmits_per_kop":    regRetransmits,
		"ipc.overload_sheds_per_kop": regOverloadSheds,
		"ipc.dups_per_kop":           regDups,
	} {
		v, ok := m.delta(key)
		m.ratio(name, 1000*v, ops, ok)
	}

	out["ipc.exchange_p50_ns"] = meanHist(regs, afterScrapes, true, regExchangeHist, func(h histStat) int64 { return h.p50 })
	out["ipc.exchange_p99_ns"] = meanHist(regs, afterScrapes, true, regExchangeHist, func(h histStat) int64 { return h.p99 })
	readHist, writeHist := regOpReadBlock, regOpWriteBlock
	// serverOps are the product events that are "the server handling the
	// request"; anything else under a trace id (a flush, a replication
	// push) is a further child of the client span.
	serverOps := map[string]bool{evReadBlock: true, evFastRead: true, evWriteBlock: true}
	if spec.largeOps {
		readHist, writeHist = regOpReadLarge, regOpWriteLarge
		serverOps = map[string]bool{evReadLarge: true, evWriteLarge: true}
	}
	// The inline fast path answers cache hits without entering the timed
	// dispatch, so on a workload that always hits this reads 0.
	out["rfs.op.read_p50_ns"] = meanHist(regs, afterScrapes, false, readHist, func(h histStat) int64 { return h.p50 })
	out["rfs.op.write_p50_ns"] = meanHist(regs, afterScrapes, false, writeHist, func(h histStat) int64 { return h.p50 })

	hits, okH := m.volDelta(regVolCacheHits, afterScrapes, beforeScrapes)
	misses, okM := m.volDelta(regVolCacheMisses, afterScrapes, beforeScrapes)
	m.ratio("rfs.cache.hit_ratio", hits, hits+misses, okH && okM)
	runs, okRuns := m.volDelta(regVolFlushRuns, afterScrapes, beforeScrapes)
	blocks, okBlocks := m.volDelta(regVolFlushedBlks, afterScrapes, beforeScrapes)
	m.ratio("rfs.flush.blocks_per_run", blocks, runs, okRuns && okBlocks)
	m.ratio("rfs.flush.runs_per_kop", 1000*runs, ops, okRuns)

	m.ratio("rfs.store.reads_per_op", float64(stores.reads), ops, true)
	m.ratio("rfs.store.writes_per_op", float64(stores.writes), ops, true)
	m.ratio("rfs.store.write_amp", float64(stores.writeBytes), float64(writes*in.writeBytes), true)

	pageWrites, okPW := m.delta(regPageWrites)
	largeWrites, okLW := m.delta(regLargeWrites)
	serverWrites := pageWrites + largeWrites
	applied, okA := m.delta(regReplApplied)
	m.ratio("rfs.repl.records_per_write", applied, serverWrites, okA && okPW && okLW)
	out["rfs.repl.lag_max"] = float64(lagMax)
	callbacks, okCB := m.delta(regCallbacks)
	m.ratio("rfs.inval.callbacks_per_write", callbacks, serverWrites, okCB && okPW && okLW)
	cbErrs, okE := m.delta(regCallbackErrs)
	cbTOs, okT := m.delta(regCallbackTOs)
	m.ratio("rfs.inval.errs", cbErrs+cbTOs, 1, okE && okT)

	ch, cm := float64(cacheAfter[0]-cacheBefore[0]), float64(cacheAfter[1]-cacheBefore[1])
	m.ratio("rfs.ccache.hit_ratio", ch, ch+cm, true)
	out["rfs.cclient.purges"] = float64(cacheAfter[2] - cacheBefore[2])

	rs, ws, all := joinSpans(tracers, events, win.start, serverOps)
	out["span.client_read.p50_us"] = median(rs.client)
	out["span.server_read.p50_us"] = median(rs.server)
	out["span.client_read.self_p50_us"] = median(rs.self)
	out["span.client_write.p50_us"] = median(ws.client)
	out["span.server_write.p50_us"] = median(ws.server)
	out["span.client_write.self_p50_us"] = median(ws.self)
	spanFile, err := writeSpans(cfg.traceDir, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, cfg.seed), all)
	if err != nil {
		return nil, harnessf("write spans: %w", err)
	}

	refP50 := percentile(ref.reads, 50)
	tracedP50 := percentile(win.reads, 50)
	if refP50 > 0 {
		out["trace.overhead_pct"] = 100 * (tracedP50 - refP50) / refP50
	} else {
		out["trace.overhead_pct"] = missing
	}

	res := &result{
		attempted: attempted,
		failed:    failed,
		metrics:   out,
		notes: map[string]any{
			"transport":       transport,
			"clients":         spec.clients,
			"span_file":       spanFile,
			"spans":           len(all),
			"stamped_ops":     len(rs.client) + len(ws.client),
			"untraced_p50_us": refP50,
			"traced_p50_us":   tracedP50,
		},
	}
	return res, nil
}
