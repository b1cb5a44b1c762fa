package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON keeps the driver's copy of the
// workload and metric catalog equal to the one the program reports by.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, j, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, j, m)
		}
	}
}

func testConfig(t *testing.T, workload string) runConfig {
	return runConfig{
		workload:    workload,
		seed:        1,
		window:      300 * time.Millisecond,
		warmup:      50 * time.Millisecond,
		setups:      1,
		ladderScale: 0.01,
		tmpBase:     t.TempDir(),
		traceDir:    t.TempDir(),
		logf:        t.Logf,
	}
}

// TestWorkloadsEndToEnd runs every workload for 300 ms with tracing off
// and checks the result carries exactly the end-to-end metrics, all
// finite and positive, with no failed op.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w.name)
			if w.largeOps {
				// Whole-file passes of 16 ops: under the race detector
				// 300 ms do not reach the first pass of the other kind.
				cfg.window = time.Second
			}
			res, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("result has %d metrics, want the %d end-to-end ones", len(res.metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.metrics[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (present %v): want finite and positive", m.name, v, ok)
				}
			}
		})
	}
}

// TestTracedWorkloadsAreWhatTheySay checks the property the two page
// workloads are defined by: page_hot never leaves the server cache and
// page_cold nearly always does.
func TestTracedWorkloadsAreWhatTheySay(t *testing.T) {
	for _, tc := range []struct {
		workload string
		ok       func(hit float64) bool
	}{
		{"page_hot", func(hit float64) bool { return hit > 0.95 }},
		{"page_cold", func(hit float64) bool { return hit >= 0 && hit < 0.05 }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := testConfig(t, tc.workload)
			cfg.window *= 2 // the traced window is half of it
			out := map[string]float64{}
			res, err := tracedWorkload(findWorkload(tc.workload), cfg, out)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
			}
			if hit := out["rfs.cache.hit_ratio"]; !tc.ok(hit) {
				t.Errorf("rfs.cache.hit_ratio = %v", hit)
			}
			if _, err := os.Stat(res.notes["span_file"].(string)); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestLadderAndTraceCoverPerLayer runs the ladder at 1/100 of its
// iterations and one traced workload, and checks that together they
// produce every per-layer metric, none of them missing at this commit.
func TestLadderAndTraceCoverPerLayer(t *testing.T) {
	cfg := testConfig(t, "cluster_shared")
	cfg.trace = true
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
	}
	if len(res.metrics) != len(perLayer) {
		t.Errorf("result has %d metrics, want the %d per-layer ones", len(res.metrics), len(perLayer))
	}
	for _, m := range perLayer {
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v): want a finite number", m.name, v, ok)
		}
		if v == missing {
			t.Errorf("%s reads missing: a registry key it is built on is gone", m.name)
		}
	}
	if n := outstandingBuffers(); n != 0 {
		t.Errorf("%d pooled buffers outstanding after the run", n)
	}
}

// naturalShape runs a workload in the shape ISSUE 13 gives it, which the
// gated workload departs from because the product returns wrong bytes on
// it (see workload.go). It is the removal condition of that workaround:
// skipped while the bug stands, because it fails about every second run;
// when it passes repeatedly with BENCH_NATURAL=1, the workaround goes and
// the skip with it.
func naturalShape(t *testing.T, setup func(dir string) (*instance, error)) {
	if os.Getenv("BENCH_NATURAL") == "" {
		t.Skip("known product bug, see workload.go; BENCH_NATURAL=1 runs the natural shape for 20 s")
	}
	in, err := setup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	win := runPhase(in.workers, phase{dur: 20 * time.Second, record: true})
	if win.failed != 0 {
		t.Errorf("%d of %d ops failed, the first: %v", win.failed, win.attempted, win.firstErr)
	}
}

// One process streaming 64 KB reads: ipc.handleMoveToData accepts a late
// MoveTo data packet of an earlier transfer into the pending one.
func TestNaturalStreamOneProcess(t *testing.T) {
	naturalShape(t, func(dir string) (*instance, error) { return setupStream(dir, 1, 1) })
}

// Caching clients re-reading pages they wrote themselves:
// rfs.CachingClient.WriteBlock leaves the old copy cached when its
// refresh Insert is refused.
func TestNaturalSharedReadsOwnPages(t *testing.T) {
	naturalShape(t, func(string) (*instance, error) { return setupClusterShared(1, false) })
}

// delayedWorker makes every op of the worker it wraps slower by a known
// amount, inside the op's timestamps, as a slower client stub would.
type delayedWorker struct {
	worker
	delay func()
}

func (d delayedWorker) step() opResult {
	r := d.worker.step()
	d.delay()
	r.end = time.Now()
	return r
}

// TestInjectedDelayShows checks that dividing by the host factor does not
// divide a slower program away. Slices of page_hot as it is alternate with
// slices in which every op is made slower, inside its timestamps, by a
// 4 µs spin or by a sweep over 256 KB (which also empties the caches), each
// slice between two reference bursts as in a real window; alternating
// keeps the host the same for both. The injection must not move the host
// factor, and the reported median must rise by the delay injected (the
// spin's is known: 4 µs of wall time, 4 µs over the factor as reported).
// The medians as measured are logged, not compared: unscaled, a median
// that sits between two modes of the distribution is the less steady of
// the two. Half a minute, so it runs on request (BENCH_SENSITIVITY=1).
func TestInjectedDelayShows(t *testing.T) {
	if os.Getenv("BENCH_SENSITIVITY") == "" {
		t.Skip("takes half a minute; BENCH_SENSITIVITY=1 runs it")
	}
	in, err := findWorkload("page_hot").setup(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	ref, err := newReference(len(in.workers))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	runPhase(in.workers, phase{dur: warmup})

	spin := func() {
		for t0 := time.Now(); time.Since(t0) < 4*time.Microsecond; {
		}
	}
	sweep := func(buf []byte) func() {
		return func() {
			for i := 0; i < len(buf); i += 64 {
				buf[i]++
			}
		}
	}
	for _, variant := range []struct {
		name    string
		delay   func() func()
		delayUs float64 // 0: unknown, only required to show
	}{
		{"spin 4us", func() func() { return spin }, 4},
		{"sweep 256KB", func() func() { return sweep(make([]byte, 256<<10)) }, 0},
	} {
		slow := make([]worker, len(in.workers))
		for i, w := range in.workers {
			slow[i] = delayedWorker{w, variant.delay()}
		}
		// side 0 is the workload as it is, side 1 the slowed one.
		sides := [2]struct {
			workers   []worker
			rec       *recorder
			stretches []stretch
			marks     [][]int
			factors   []float64
		}{{workers: in.workers}, {workers: slow}}
		for i := range sides {
			sides[i].rec = newRecorder(len(in.workers))
		}
		before, err := ref.burst()
		if err != nil {
			t.Fatal(err)
		}
		for slice := 0; slice < 120; slice++ {
			sd := &sides[slice%2]
			sd.stretches = append(sd.stretches, runStretch(sd.workers, sliceDur, sd.rec))
			sd.marks = append(sd.marks, sd.rec.marks())
			after, err := ref.burst()
			if err != nil {
				t.Fatal(err)
			}
			sd.factors = append(sd.factors, hostFactor(before, after))
			before = after
		}
		var measured, reported, factor [2]float64
		for i, sd := range sides {
			res := sd.rec.result(sd.stretches, sd.marks, sd.factors)
			raw := sd.rec.result(sd.stretches, sd.marks, nil)
			if res.failed != 0 {
				t.Fatalf("%d ops failed: %v", res.failed, res.firstErr)
			}
			measured[i], reported[i], factor[i] = percentile(raw.reads, 50), percentile(res.reads, 50), median(sd.factors)
		}
		m, r, f := measured[1]/measured[0]-1, reported[1]/reported[0]-1, factor[1]/factor[0]-1
		t.Logf("%s: host factor %.3f -> %.3f (%+.1f%%), measured read_p50_us %+.1f%%, reported %+.1f%%",
			variant.name, factor[0], factor[1], 100*f, 100*m, 100*r)
		if math.Abs(f) > 0.08 { // the host itself moves a few percent between the two sets of slices
			t.Errorf("%s: the host factor moved %+.1f%% with the program", variant.name, 100*f)
		}
		rose, want := reported[1]-reported[0], variant.delayUs/factor[1]
		if rose < 0.8*want || (want > 0 && rose > 1.6*want) || r < 0.05 {
			t.Errorf("%s: reported read_p50_us rose %.2f us (%+.1f%%); the injected delay is %.2f us as reported", variant.name, rose, 100*r, want)
		}
	}
}

func TestAgreeIsSymmetric(t *testing.T) {
	if a, b := apartShare(100, 130), apartShare(130, 100); a != b || math.Abs(a-0.3) > 1e-12 {
		t.Errorf("apartShare(100,130) = %v, apartShare(130,100) = %v; want 0.3 both ways", a, b)
	}
	for _, pair := range [][2]float64{{0, 5}, {5, 0}, {math.NaN(), 5}, {-1, 5}} {
		if got := apartShare(pair[0], pair[1]); got <= 1 {
			t.Errorf("apartShare(%v, %v) = %v: must not pass any bound", pair[0], pair[1], got)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.9, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {1000000, 99.99, true}} {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 100},
		{"one child inside", []interval{{120, 150}}, 70},
		{"nested children count once", []interval{{120, 180}, {130, 140}}, 40},
		{"overlapping children are a union", []interval{{110, 150}, {140, 170}}, 40},
		{"disjoint children add", []interval{{110, 120}, {150, 170}}, 70},
		{"child sticking out is clipped", []interval{{50, 130}, {190, 400}}, 60},
		{"child outside counts for nothing", []interval{{0, 50}, {300, 400}}, 100},
		{"instantaneous mark covers nothing", []interval{{150, 150}}, 100},
		{"child covering everything", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCountStore(t *testing.T) {
	cs := &countStore{inner: newMemStore()}
	if err := cs.Create(7, 4096); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pageSize)
	stampPage(page, 7, 3, 1, 9)
	if err := cs.WriteAt(7, page, 3*pageSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	for i := 0; i < 2; i++ {
		if _, err := cs.ReadAt(7, got, 3*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, seq, err := checkPage(got, 7, 3); err != nil || seq != 9 {
		t.Errorf("page through the wrapper: seq %d, err %v", seq, err)
	}
	if size, err := cs.Size(7); err != nil || size != 4096 {
		t.Errorf("Size = %d, %v", size, err)
	}
	c := sumStores([]*countStore{cs, cs}).sub(sumStores([]*countStore{cs}))
	want := storeCounts{reads: 2, writes: 1, readBytes: 2 * pageSize, writeBytes: pageSize}
	if c != want {
		t.Errorf("counts %+v, want %+v", c, want)
	}
}

func TestPagePattern(t *testing.T) {
	a, b := make([]byte, pageSize), make([]byte, pageSize)
	stampPage(a, 1, 2, 0, 5)
	if w, s, err := checkPage(a, 1, 2); err != nil || w != 0 || s != 5 {
		t.Fatalf("intact page: writer %d seq %d err %v", w, s, err)
	}
	if _, _, err := checkPage(a, 1, 3); err == nil {
		t.Error("a page read as another page passed")
	}
	stampPage(b, 1, 2, 0, 6)
	torn := append(append([]byte(nil), b[:pageSize/2]...), a[pageSize/2:]...)
	if _, _, err := checkPage(torn, 1, 2); err == nil {
		t.Error("a page torn between two writes passed")
	}
	if _, _, err := checkPage(a[:100], 1, 2); err == nil {
		t.Error("a short page passed")
	}
}
