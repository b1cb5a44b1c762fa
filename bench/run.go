package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation: one workload, one seed, one window.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	// warmup, setups and setupBudget are the constants warmup, minSetups
	// and setupBudget in real runs; the self-test shortens them.
	warmup      time.Duration
	setups      int
	setupBudget time.Duration
	trace       bool
	// ladderScale scales the ladder's fixed iteration counts; 1 for
	// real runs, 0.01 in the self-test.
	ladderScale float64
	tmpBase     string // scratch files live in fresh directories under here
	traceDir    string // the span file is written here
	logf        func(format string, args ...any)
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             map[string]any // informational, printed on stderr only
}

// harnessf builds the error for a failure of the benchmark itself
// (cannot boot, a buffer leak): the only kind runOnce returns and the
// only kind that makes the process exit non-zero. A failed op is counted
// and reported, never fatal.
func harnessf(format string, args ...any) error {
	return fmt.Errorf("harness: "+format, args...)
}

// warmup is the unrecorded closed-loop work before the window. The
// workload is set up at least minSetups times, and again until
// setupBudget has been spent setting up (page_hot boots in 50 ms: a
// median of five of those is a coin toss), every instance but the last
// is torn down again, and setup_s is the median. All three are part of
// the method, so none is a flag.
const (
	warmup      = 2 * time.Second
	minSetups   = 5
	maxSetups   = 30
	setupBudget = 2 * time.Second
)

// phase is one stretch of closed-loop work.
type phase struct {
	dur    time.Duration
	record bool
}

// sample is one recorded op.
type sample struct {
	ns    uint32
	write bool
}

// workerLog is what one worker recorded, over all the stretches it ran.
type workerLog struct {
	samples           []sample
	attempted, failed int64
	firstErr          error
}

// recorder holds one log per worker. A nil *recorder records nothing.
type recorder struct{ logs []workerLog }

func newRecorder(workers int) *recorder {
	r := &recorder{logs: make([]workerLog, workers)}
	for i := range r.logs {
		r.logs[i].samples = make([]sample, 0, 1<<20)
	}
	return r
}

// marks returns how many samples each worker has recorded so far: the
// boundary between two stretches.
func (r *recorder) marks() []int {
	m := make([]int, len(r.logs))
	for i := range r.logs {
		m[i] = len(r.logs[i].samples)
	}
	return m
}

// stretch is the timing of one stretch of closed-loop work.
type stretch struct {
	start time.Time
	dur   time.Duration // from start until the last worker finished
	cpu   float64       // process user+sys seconds over dur
}

// rusage reads the process's resource usage; the zero value if the
// kernel refuses, which it has no reason to.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// runStretch drives every worker in its own goroutine until dur has
// passed and each has finished the op it had in flight then; every
// completed op is recorded, and the stretch lasts until the last worker
// is done (at most one op longer than dur).
func runStretch(workers []worker, dur time.Duration, rec *recorder) stretch {
	var wg sync.WaitGroup
	st := stretch{start: time.Now()}
	cpu0 := cpuSeconds()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			for {
				r := w.step()
				if rec != nil {
					rec.logs[i].add(r)
				}
				if r.end.Sub(st.start) >= dur {
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	st.dur = time.Since(st.start)
	st.cpu = cpuSeconds() - cpu0
	return st
}

func (l *workerLog) add(r opResult) {
	l.attempted++
	if r.err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = r.err
		}
		return
	}
	lat := r.end.Sub(r.start)
	if lat > math.MaxUint32 {
		lat = math.MaxUint32 // 4.3 s: far past anything a percentile reports
	}
	l.samples = append(l.samples, sample{ns: uint32(lat), write: r.write})
}

// phaseResult is what a window measured.
type phaseResult struct {
	start             time.Time
	dur               time.Duration // time the workload ran: the stretches, not the bursts between them
	attempted, failed int64
	firstErr          error
	// reads and writes are latencies in µs, sorted, each divided by the
	// host factor of its slice (factors is nil: as the clock gave them).
	reads, writes []float64
	cpu           float64 // process user+sys seconds, likewise
	// rate is completed ops per second of dur, each slice's ops multiplied
	// by its factor.
	rate float64
	// factors are the slices' host factors, raw the same window's numbers
	// with no factor applied, sliceOps the ops completed in each slice:
	// all three for the stamp only.
	factors  []float64
	raw      *phaseResult
	sliceOps []int
}

// runPhase runs one unsliced stretch and reports it as the clock gave
// it: the warm-up and the traced run's half-windows.
func runPhase(workers []worker, ph phase) phaseResult {
	var rec *recorder
	if ph.record {
		rec = newRecorder(len(workers))
	}
	st := runStretch(workers, ph.dur, rec)
	if rec == nil {
		return phaseResult{start: st.start, dur: st.dur}
	}
	return rec.result([]stretch{st}, [][]int{rec.marks()}, nil)
}

// runWindow runs the measured window: sliceDur of workload, a reference
// burst, and so on until the slices add up to dur; see reference.go.
func runWindow(workers []worker, dur time.Duration, ref *reference) (phaseResult, error) {
	rec := newRecorder(len(workers))
	var (
		stretches []stretch
		marks     [][]int
		factors   []float64
	)
	before, err := ref.burst()
	if err != nil {
		return phaseResult{}, err
	}
	for done := time.Duration(0); done < dur; done += sliceDur {
		stretches = append(stretches, runStretch(workers, min(sliceDur, dur-done), rec))
		marks = append(marks, rec.marks())
		after, err := ref.burst()
		if err != nil {
			return phaseResult{}, err
		}
		factors = append(factors, hostFactor(before, after))
		before = after
	}
	res := rec.result(stretches, marks, factors)
	raw := rec.result(stretches, marks, nil)
	res.raw = &raw
	return res, nil
}

// result merges the recorded stretches. marks[s][w] is how many samples
// worker w had recorded when stretch s ended; factors[s], when given, is
// the host factor of stretch s.
func (r *recorder) result(stretches []stretch, marks [][]int, factors []float64) phaseResult {
	res := phaseResult{start: stretches[0].start, factors: factors}
	for i := range r.logs {
		l := &r.logs[i]
		res.attempted += l.attempted
		res.failed += l.failed
		if res.firstErr == nil {
			res.firstErr = l.firstErr
		}
	}
	var ops float64
	for s, st := range stretches {
		f := 1.0
		if factors != nil {
			f = factors[s]
		}
		n := 0
		for w := range r.logs {
			from := 0
			if s > 0 {
				from = marks[s-1][w]
			}
			for _, sm := range r.logs[w].samples[from:marks[s][w]] {
				us := float64(sm.ns) / 1e3 / f
				if sm.write {
					res.writes = append(res.writes, us)
				} else {
					res.reads = append(res.reads, us)
				}
			}
			n += marks[s][w] - from
		}
		res.sliceOps = append(res.sliceOps, n)
		res.dur += st.dur
		res.cpu += st.cpu / f
		ops += float64(n) * f
	}
	res.rate = ops / res.dur.Seconds()
	sort.Float64s(res.reads)
	sort.Float64s(res.writes)
	return res
}

// ops is the number of completed, verified ops.
func (r *phaseResult) ops() int { return len(r.reads) + len(r.writes) }

// tailMean is the mean of the slowest tenth of sorted without its slowest
// hundredth: the tail metric. One percentile of a latency distribution
// with several modes jumps when a mode's share crosses it (cluster_shared's
// write p99 sat between a 170 µs shoulder and 4 ms outliers and spread
// 14–24 % run to run); the mean over the band moves by as much as the
// tail does, and still sees anything that slows one op in a hundred.
func tailMean(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi := percentileRank(len(sorted), 90), percentileRank(len(sorted), 99)
	if hi <= lo {
		return sorted[hi-1]
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// windowMetrics returns the window's six numbers, each over the whole
// window.
func (r *phaseResult) windowMetrics() map[string]float64 {
	return map[string]float64{
		"read_p50_us":   percentile(r.reads, 50),
		"read_tail_us":  tailMean(r.reads),
		"write_p50_us":  percentile(r.writes, 50),
		"write_tail_us": tailMean(r.writes),
		"ops_per_s":     r.rate,
		"cpu_us_per_op": r.cpu * 1e6 / float64(r.ops()),
	}
}

// tailNote describes a latency sample for the stderr summary: its size
// and the highest percentile that still has ten samples beyond it.
func tailNote(all []float64) map[string]any {
	note := map[string]any{"samples": len(all)}
	if p, ok := highestPercentile(len(all)); ok {
		note["pmax"] = p
		note["pmax_us"] = percentile(all, p)
	}
	return note
}

// setUp builds the workload once, in a fresh scratch directory, and
// returns the instance, how long it took and the directory to remove.
func setUp(spec *workloadSpec, cfg *runConfig) (*instance, float64, string, error) {
	dir, err := scratchDir(cfg.tmpBase)
	if err != nil {
		return nil, 0, "", harnessf("scratch dir: %w", err)
	}
	t0 := time.Now()
	in, err := spec.setup(dir, cfg.seed)
	took := time.Since(t0).Seconds()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, "", harnessf("set up %s: %w", spec.name, err)
	}
	return in, took, dir, nil
}

// tearDown closes the instance, removes its files and checks that every
// pooled buffer came back.
func tearDown(in *instance, dir string) error {
	in.close()
	if err := os.RemoveAll(dir); err != nil {
		return harnessf("remove %s: %w", dir, err)
	}
	// Transports release their last frames as their goroutines exit;
	// give them a moment before calling it a leak.
	deadline := time.Now().Add(2 * time.Second)
	for outstandingBuffers() != 0 {
		if time.Now().After(deadline) {
			return harnessf("%d pooled buffers still outstanding after close", outstandingBuffers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// finishRun syncs the servers and re-reads acked writes through the
// admin clients; each Sync and each re-read counts as an op.
func finishRun(in *instance) (attempted, failed int64, firstErr error) {
	for vol, cl := range in.admin {
		attempted++
		if err := cl.Sync(0); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("sync volume %d: %w", vol, err)
			}
		}
	}
	for _, w := range in.workers {
		a, f, err := w.readback(in.admin)
		attempted += int64(a)
		failed += int64(f)
		if firstErr == nil {
			firstErr = err
		}
	}
	return attempted, failed, firstErr
}

// runOnce executes one invocation and returns its result. The error is
// non-nil only for harness failures.
func runOnce(cfg runConfig) (*result, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, harnessf("unknown workload %q", cfg.workload)
	}
	if spec.clients > runtime.NumCPU() {
		cfg.logf("warning: %s runs %d closed-loop clients on %d CPUs", spec.name, spec.clients, runtime.NumCPU())
	}
	if cfg.trace {
		return runTraced(spec, cfg)
	}

	ref, err := newReference(spec.clients)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Set up, several times over; each set-up time is divided by the host
	// factor of the bursts around it, like a slice of the window.
	var (
		in         *instance
		dir        string
		setupTimes []float64 // as reported: at the reference host speed
		setupRaw   []float64 // as the clock gave them
		spent      float64
	)
	before, err := ref.burst()
	if err != nil {
		return nil, err
	}
	for len(setupTimes) < cfg.setups || (spent < cfg.setupBudget.Seconds() && len(setupTimes) < maxSetups) {
		if in != nil {
			if err := tearDown(in, dir); err != nil {
				return nil, err
			}
			if before, err = ref.burst(); err != nil {
				return nil, err
			}
		}
		var took float64
		if in, took, dir, err = setUp(spec, &cfg); err != nil {
			return nil, err
		}
		after, err := ref.burst()
		if err != nil {
			in.close()
			return nil, err
		}
		setupRaw = append(setupRaw, took)
		setupTimes = append(setupTimes, took/hostFactor(before, after))
		spent += took
	}
	transport := in.cluster.transportKind()

	runPhase(in.workers, phase{dur: cfg.warmup})
	win, err := runWindow(in.workers, cfg.window, ref)
	if err != nil {
		in.close()
		return nil, err
	}

	attempted, failed, firstErr := finishRun(in)
	attempted, failed = attempted+win.attempted, failed+win.failed
	if win.firstErr != nil {
		firstErr = win.firstErr
	}
	if err := tearDown(in, dir); err != nil {
		return nil, err
	}
	if firstErr != nil {
		cfg.logf("first failed op: %v", firstErr)
	}
	if len(win.reads) == 0 || len(win.writes) == 0 {
		return nil, harnessf("%d reads and %d writes completed in %v: no latency to report", len(win.reads), len(win.writes), cfg.window)
	}

	metrics := win.windowMetrics()
	metrics["setup_s"] = median(setupTimes)
	measured := win.raw.windowMetrics()
	measured["setup_s"] = median(setupRaw)
	res := &result{
		attempted: attempted,
		failed:    failed,
		metrics:   metrics,
		notes: map[string]any{
			"transport":      transport,
			"clients":        spec.clients,
			"setups":         len(setupTimes),
			"measured":       measured,
			"host.factor":    factorSummary(win.factors),
			"ops_per_second": perSecond(win.sliceOps),
			"reads":          tailNote(win.reads),
			"writes":         tailNote(win.writes),
		},
	}
	return res, nil
}

// perSecond adds the slices' op counts up by the second of workload
// time, for the stamp: a run disturbed from outside can be told from a
// slow program by it; no metric is computed from it.
func perSecond(sliceOps []int) []int {
	per := int(time.Second / sliceDur)
	var out []int
	for i, n := range sliceOps {
		if i%per == 0 {
			out = append(out, 0)
		}
		out[len(out)-1] += n
	}
	return out
}
