package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAgree is the benchmark's own acceptance check: two sets of n runs
// per workload, each run a fresh process with its own seed, the second
// set visiting the workloads in the opposite order. For every workload
// and end-to-end metric it prints each set's median and quartiles and a
// verdict: agree when the two medians lie within the metric's bound of
// each other, whichever set is the slower one, and (setup_s apart, as in
// the driver's check) each set's interquartile range is within the bound
// of its median; DISAGREE otherwise. It returns the process exit code: 0
// only when every cell agrees.
func runAgree(n int, seed int64, seconds float64, logf func(string, ...any)) int {
	self, err := os.Executable()
	if err != nil {
		logf("cannot find own executable: %v", err)
		return exitHarness
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		order := append([]*workloadSpec(nil), workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for run := 0; run < n; run++ {
			for _, w := range order {
				s := seed + int64(set*n+run)
				logf("agree: set %d run %d %s seed %d", set+1, run+1, w.name, s)
				out, err := oneProcess(self, w.name, s, seconds)
				if err != nil {
					logf("agree: %s: %v", w.name, err)
					return exitHarness
				}
				if !out.Correct {
					logf("agree: %s seed %d: %d of %d ops failed", w.name, s, out.Failed, out.Attempted)
					return exitHarness
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, m := range out.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
			}
		}
	}

	disagree := 0
	fmt.Printf("%-15s %-14s %36s %36s %8s %7s  %s\n", "workload", "metric", "set 1 median [q1, q3]", "set 2 median [q1, q3]", "apart", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := values[0][w.name][m.name], values[1][w.name][m.name]
			apart := apartShare(median(a), median(b))
			verdict := "agree"
			// Written so that a NaN (a metric missing from a set) disagrees.
			if !(apart <= m.bound) || (m.name != "setup_s" && !(spreadShare(a) <= m.bound && spreadShare(b) <= m.bound)) {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-15s %-14s %36s %36s %7.1f%% %6.0f%%  %s\n", w.name, m.name, summary(a), summary(b), 100*apart, 100*m.bound, verdict)
		}
	}
	if disagree > 0 {
		logf("agree: %d cells disagree", disagree)
		return 1
	}
	return 0
}

// apartShare is how far two medians lie apart, as a share of the smaller:
// the same whichever set caught the noise. No end-to-end metric can be 0
// or negative, so such a median is NaN, which reads as DISAGREE.
func apartShare(ma, mb float64) float64 {
	if !(ma > 0 && mb > 0) {
		return math.NaN()
	}
	return math.Abs(mb-ma) / math.Min(ma, mb)
}

// spreadShare is the interquartile range of vals as a share of their
// median.
func spreadShare(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

func summary(vals []float64) string {
	q1, q3 := quartiles(vals)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vals), q1, q3)
}

// oneProcess runs one untraced run in a child process and parses the
// last line of its standard output.
func oneProcess(self, workload string, seed int64, seconds float64) (*outResult, error) {
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var out outResult
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("parse result %q: %w", last, err)
	}
	return &out, nil
}
