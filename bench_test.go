package vkernel

// One benchmark per table and numeric section of the paper's evaluation.
// Each iteration regenerates the full experiment (a deterministic
// simulation), so ns/op is the harness cost; the interesting outputs are
// the custom metrics: the simulated headline value in milliseconds
// (sim_ms, where the experiment has a single headline) and the maximum
// relative deviation from the paper's published cells (paper_maxdev_pct).
//
// Run: go test -bench=. -benchmem .

import (
	"testing"

	"vkernel/internal/experiments"
)

// benchExperiment runs one registered experiment b.N times and reports the
// paper-deviation metric from the last run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var maxDev float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		maxDev = 0
		for _, t := range res.Tables {
			if d := t.MaxDeviation(); d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev*100, "paper_maxdev_pct")
}

// BenchmarkTable41 regenerates Table 4-1 (3 Mb network penalty).
func BenchmarkTable41(b *testing.B) { benchExperiment(b, "table41") }

// BenchmarkTable51 regenerates Table 5-1 (kernel performance, 8 MHz).
func BenchmarkTable51(b *testing.B) { benchExperiment(b, "table51") }

// BenchmarkTable52 regenerates Table 5-2 (kernel performance, 10 MHz).
func BenchmarkTable52(b *testing.B) { benchExperiment(b, "table52") }

// BenchmarkSec54 regenerates the §5.4 multi-pair traffic figures.
func BenchmarkSec54(b *testing.B) { benchExperiment(b, "sec54") }

// BenchmarkTable61 regenerates Table 6-1 (page-level access).
func BenchmarkTable61(b *testing.B) { benchExperiment(b, "table61") }

// BenchmarkTable62 regenerates Table 6-2 (sequential access).
func BenchmarkTable62(b *testing.B) { benchExperiment(b, "table62") }

// BenchmarkTable63 regenerates Table 6-3 (program loading).
func BenchmarkTable63(b *testing.B) { benchExperiment(b, "table63") }

// BenchmarkSec61 regenerates the §6.1 segment ablation and protocol bound.
func BenchmarkSec61(b *testing.B) { benchExperiment(b, "sec61") }

// BenchmarkSec62 regenerates the §6.2 streaming comparison.
func BenchmarkSec62(b *testing.B) { benchExperiment(b, "sec62") }

// BenchmarkSec7 regenerates the §7 file-server capacity sweep.
func BenchmarkSec7(b *testing.B) { benchExperiment(b, "sec7") }

// BenchmarkSec8 regenerates the §8 10 Mb Ethernet preview.
func BenchmarkSec8(b *testing.B) { benchExperiment(b, "sec8") }

// BenchmarkSec34 regenerates the §3/§4 design ablations.
func BenchmarkSec34(b *testing.B) { benchExperiment(b, "sec34") }

// TestAllExperimentsWithinTolerance is the repo's headline regression: every
// published cell the harness reproduces must stay within 35 % of the paper,
// and the flagship tables much closer (README "Benchmarks": `make bench`
// prints the per-table accounting; elapsed-time columns are all within a
// few percent, the paper's internally inconsistent bulk-transfer CPU
// columns dominate the tail).
func TestAllExperimentsWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take ~2s total")
	}
	tight := map[string]float64{
		"table41": 0.08,
		"table51": 0.06,
		"table61": 0.25,
		"table62": 0.08,
		"sec8":    0.15,
	}
	for _, exp := range experiments.Registry {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run()
			if err != nil {
				t.Fatal(err)
			}
			limit := 0.35
			if l, ok := tight[exp.ID]; ok {
				limit = l
			}
			for _, tb := range res.Tables {
				if d := tb.MaxDeviation(); d > limit {
					t.Errorf("%s: max deviation %.1f%% exceeds %.0f%%\n%s",
						tb.ID, d*100, limit*100, tb.Render())
				}
			}
		})
	}
}
