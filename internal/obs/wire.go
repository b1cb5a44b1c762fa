package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Snapshot wire format. A scrape (OpQueryStats, expvar, vstat) carries
// one snapshot as line-oriented text — self-describing, versioned,
// cheap to produce and parse, and independent of Go struct layout so
// a newer vstat can scrape an older vnode and vice versa:
//
//	v 1
//	n <node-label>
//	c <name> <value>
//	g <name> <value>
//	h <name> <count> <sum> <max> <p50> <p95> <p99>
//	t <trace> <unixnano> <what> <arg> <dur-ns>
//
// Names, labels and event names never contain white space (Serialize
// replaces any with underscores). Unknown line kinds are skipped by
// the parser, so the format is forward-extensible.

// wireVersion is the snapshot format version.
const wireVersion = 1

// Snapshot is a parsed metrics scrape from one node.
type Snapshot struct {
	Node     string
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistStat
	Events   []Event
}

// Serialize renders the registry's full state — metrics and trace ring
// — in the snapshot wire format.
func (r *Registry) Serialize() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "v %d\n", wireVersion)
	fmt.Fprintf(&b, "n %s\n", sanitize(r.Node()))
	r.Do(
		func(name string, v int64) {
			fmt.Fprintf(&b, "c %s %d\n", sanitize(name), v)
		},
		func(name string, v int64) {
			fmt.Fprintf(&b, "g %s %d\n", sanitize(name), v)
		},
		func(name string, s HistStat) {
			fmt.Fprintf(&b, "h %s %d %d %d %d %d %d\n",
				sanitize(name), s.Count, s.Sum, s.Max, s.P50, s.P95, s.P99)
		},
	)
	if r != nil {
		for _, e := range r.ring.Events() {
			fmt.Fprintf(&b, "t %d %d %s %d %d\n",
				e.Trace, e.When.UnixNano(), sanitize(e.What), e.Arg, int64(e.Dur))
		}
	}
	return b.Bytes()
}

// ParseSnapshot parses the snapshot wire format. Unknown or malformed
// lines are skipped; only a missing/unsupported version line is an
// error.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistStat),
	}
	sawVersion := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "v":
			if len(f) != 2 {
				continue
			}
			ver, err := strconv.Atoi(f[1])
			if err != nil || ver != wireVersion {
				return nil, fmt.Errorf("obs: unsupported snapshot version %q", f[1])
			}
			sawVersion = true
		case "n":
			if len(f) == 2 {
				s.Node = f[1]
			}
		case "c", "g":
			if len(f) != 3 {
				continue
			}
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				continue
			}
			if f[0] == "c" {
				s.Counters[f[1]] = v
			} else {
				s.Gauges[f[1]] = v
			}
		case "h":
			if len(f) != 8 {
				continue
			}
			var vals [6]int64
			ok := true
			for i := range vals {
				v, err := strconv.ParseInt(f[i+2], 10, 64)
				if err != nil {
					ok = false
					break
				}
				vals[i] = v
			}
			if !ok {
				continue
			}
			s.Hists[f[1]] = HistStat{
				Count: vals[0], Sum: vals[1], Max: vals[2],
				P50: vals[3], P95: vals[4], P99: vals[5],
			}
		case "t":
			if len(f) != 6 {
				continue
			}
			trace, err1 := strconv.ParseUint(f[1], 10, 32)
			when, err2 := strconv.ParseInt(f[2], 10, 64)
			arg, err3 := strconv.ParseUint(f[4], 10, 64)
			dur, err4 := strconv.ParseInt(f[5], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				continue
			}
			s.Events = append(s.Events, Event{
				Trace: uint32(trace),
				When:  time.Unix(0, when),
				What:  f[3],
				Arg:   arg,
				Dur:   time.Duration(dur),
			})
		}
	}
	if !sawVersion {
		return nil, fmt.Errorf("obs: not a snapshot (missing version line)")
	}
	for i := range s.Events {
		s.Events[i].Node = s.Node
	}
	return s, nil
}

func sanitize(name string) string {
	if name == "" {
		return "-"
	}
	// Any rune ParseSnapshot's strings.Fields splits on, not only ' ',
	// '\t' and '\n': a '\r' or '\v' in a name would split its line.
	if !strings.ContainsFunc(name, unicode.IsSpace) {
		return name
	}
	return strings.Map(func(r rune) rune {
		if unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, name)
}
