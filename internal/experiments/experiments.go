// Package experiments contains one runner per table and numeric section of
// the paper's evaluation. Each runner builds a fresh deterministic
// simulation, reproduces the paper's measurement methodology (§5.1: N
// iterations, elapsed/N, busywork-style processor accounting) and returns
// paper-vs-measured tables.
package experiments

import "vkernel/internal/stats"

// Result is an experiment's output.
type Result struct {
	Tables []stats.Table
	Notes  []string
}

// Experiment couples an id (the names the root benchmarks and
// `cmd/vbench <id>` run, README "Benchmarks") with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (Result, error)
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"table41", "3 Mb Ethernet SUN network penalty (Table 4-1)", Table41},
	{"table51", "Kernel performance, 8 MHz processor (Table 5-1)", Table51},
	{"table52", "Kernel performance, 10 MHz processor (Table 5-2)", Table52},
	{"sec54", "Multi-process traffic and the collision-detect bug (§5.4)", Sec54},
	{"table61", "Random page-level file access, 512-byte pages (Table 6-1)", Table61},
	{"table62", "Sequential page-level access vs disk latency (Table 6-2)", Table62},
	{"table63", "Program loading: 64 KB read vs transfer unit (Table 6-3)", Table63},
	{"sec61", "Segment ablation and the specialized-protocol bound (§6.1)", Sec61},
	{"sec62", "Streaming protocol comparison (§6.2)", Sec62},
	{"sec7", "File server capacity (§7)", Sec7},
	{"sec8", "10 Mb Ethernet preview (§8)", Sec8},
	{"sec34", "Design ablations: network server, IP layering, DMA (§3, §4)", Sec34},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
