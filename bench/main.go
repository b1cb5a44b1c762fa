// Command bench is the repository's benchmark: four diskless-workstation
// workloads against an in-process cluster on loopback UDP, seven
// end-to-end metrics, and (with --trace 1) an outside-in cost ladder
// plus per-layer counts and spans. See README.md in this directory.
//
//	go run ./bench --workload page_hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object; everything else
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Exit codes: 0 for a completed run (even one with failed ops — those
// are in the output), 2 for a harness error, 3 for the watchdog.
const (
	exitHarness  = 2
	exitWatchdog = 3
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated op stream")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: cost ladder and per-layer metrics")
		tmpDir   = flag.String("tmpdir", filepath.Join(".bench_build", "tmp"), "scratch files go in fresh directories under here and are removed")
		traceDir = flag.String("tracedir", filepath.Join(".bench_build", "trace"), "the traced run writes its span file here")
		agree    = flag.Bool("agree", false, "run two sets of -runs runs per workload and compare their medians against each metric's bound")
		runs     = flag.Int("runs", 3, "runs per workload per set, for -agree")
	)
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

	if *agree {
		os.Exit(runAgree(*runs, *seed, *seconds, logf))
	}
	if findWorkload(*workload) == nil {
		logf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(exitHarness)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("need --seconds > 0 and --trace 0 or 1")
		os.Exit(exitHarness)
	}
	cfg := runConfig{
		workload:    *workload,
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		warmup:      warmup,
		setups:      minSetups,
		setupBudget: setupBudget,
		trace:       *trace == 1,
		ladderScale: 1,
		tmpBase:     *tmpDir,
		traceDir:    *traceDir,
		logf:        logf,
	}

	// The watchdog: 40 s for the set-ups (they take 2 to 6), the warm-up,
	// the window with its reference bursts and, traced, 30 s for the
	// ladder (it takes 5) are the allowances; 30 s past them the run is
	// stuck. A run must end within 180 s whatever happens.
	budget := cfg.warmup + cfg.window + cfg.window/5 + 30*time.Second
	if cfg.trace {
		budget += (8 + 30) * time.Second // one set-up, and the ladder
	} else {
		budget += 40 * time.Second
	}
	watchdog := time.AfterFunc(budget, func() {
		logf("watchdog: run exceeded %v; goroutines follow", budget)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(exitWatchdog)
	})
	defer watchdog.Stop()

	stamp := hostStamp(&cfg)
	res, err := runOnce(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(exitHarness)
	}
	for k, v := range res.notes {
		stamp[k] = v
	}
	if note, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(os.Stderr, "bench: stamp %s\n", note)
	}
	if err := printResult(os.Stdout, res); err != nil {
		logf("write result: %v", err)
		os.Exit(exitHarness)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outMetric and outResult are the shape of the one JSON object on
// standard output.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func printResult(w *os.File, res *result) error {
	out := outResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]outMetric{},
	}
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	for name, v := range res.metrics {
		out.Metrics[name] = outMetric{Value: v, Unit: units[name]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostStamp says where and how the numbers were taken, so that a reader
// of a saved result can tell what they are comparable with.
func hostStamp(cfg *runConfig) map[string]any {
	host, _ := os.Hostname()
	// Only ask git inside a repository: in a bare checkout it would walk
	// up the directory tree, out of the checkout.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"hostname":                   host,
		"nproc":                      runtime.NumCPU(),
		"gomaxprocs":                 runtime.GOMAXPROCS(0),
		"go":                         runtime.Version(),
		"commit":                     commit,
		"workload":                   cfg.workload,
		"seed":                       cfg.seed,
		"seconds":                    cfg.window.Seconds(),
		"warmup_s":                   cfg.warmup.Seconds(),
		"trace":                      cfg.trace,
		"host.sleep_100us_actual_us": sleepQuantumUs(),
	}
}

// sleepQuantumUs measures what time.Sleep(100µs) really takes here: the
// host's timer quantum. On the bench host it is ~1100 µs, which is why
// nothing in a measured window waits on a timer shorter than 10 ms.
func sleepQuantumUs() float64 {
	took := make([]float64, 15)
	for i := range took {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		took[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(took)
	return took[len(took)/2]
}
