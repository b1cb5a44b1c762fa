package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing in this benchmark is done from the outside: the benchmark
// records a span around a stamped stub call, the product's nodes record
// what they did for that trace id in their own rings, and the two are
// joined by id after the window. Spans stay in memory until the run
// ends.

// span is one timed interval. Client spans are recorded here; server
// spans are product trace events pulled from the shards' rings.
type span struct {
	Trace  uint32  `json:"trace"`
	Name   string  `json:"name"`
	Node   string  `json:"node"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"` // since the traced window opened
	Dur    float64 `json:"dur_us"`
	Self   float64 `json:"self_us"`
}

// clientSpan is the raw record of one stamped op.
type clientSpan struct {
	id         uint32
	write      bool
	start, end time.Time
}

// tracer stamps one op in every with a fresh trace id. Each worker has
// its own, so ids never collide: the worker index is the id's top bits.
// A nil tracer stamps nothing.
type tracer struct {
	label string
	every int
	n     int
	base  uint32
	next  uint32
	spans []clientSpan
}

func newTracer(worker int, every int) *tracer {
	return &tracer{
		label: fmt.Sprintf("worker%d", worker),
		every: every,
		base:  uint32(worker+1) << 20,
		spans: make([]clientSpan, 0, 1<<14),
	}
}

// stamp decides whether the next op is traced and, if so, sets the
// client's trace id. It returns the id, or 0 for an untraced op.
func (t *tracer) stamp(cl fileClient) uint32 {
	if t == nil {
		return 0
	}
	t.n++
	if t.n%t.every != 0 {
		return 0
	}
	t.next = (t.next + 1) & (1<<20 - 1)
	if t.next == 0 {
		t.next = 1
	}
	id := t.base | t.next
	cl.SetTrace(id)
	return id
}

// record closes a stamped op: the client goes back to untraced and the
// span is kept.
func (t *tracer) record(cl fileClient, id uint32, write bool, start, end time.Time) {
	if id == 0 {
		return
	}
	cl.SetTrace(0)
	t.spans = append(t.spans, clientSpan{id: id, write: write, start: start, end: end})
}

// interval is a half-open time range in microseconds.
type interval struct{ from, to float64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may nest, overlap each other, or stick out of the
// parent (an asynchronous flush that finishes after the reply): only
// the union of their parts inside the parent counts.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.from < parent.from {
			c.from = parent.from
		}
		if c.to > parent.to {
			c.to = parent.to
		}
		if c.to > c.from {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from < clipped[j].from })
	covered, edge := 0.0, parent.from
	for _, c := range clipped {
		if c.from > edge {
			edge = c.from
		}
		if c.to > edge {
			covered += c.to - edge
			edge = c.to
		}
	}
	return (parent.to - parent.from) - covered
}

// collector drains the product's trace rings while a traced window
// runs. The rings hold 1024 events each and wrap, so they are read ten
// times a second (a 100 ms tick, far above the host's timer quantum)
// and only events newer than the last read are kept. It also samples
// whatever gauge the caller asks for at each tick.
type collector struct {
	regs   []registry
	sample func(s scrape)
	stop   chan struct{}
	done   sync.WaitGroup

	last   map[string]time.Time
	events []traceEvent
}

func startCollector(regs []registry, sample func(scrape)) *collector {
	c := &collector{regs: regs, sample: sample, stop: make(chan struct{}), last: map[string]time.Time{}}
	// Whatever the rings hold from set-up is not this window's.
	c.drain(false)
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.drain(true)
			}
		}
	}()
	return c
}

func (c *collector) drain(keep bool) {
	for _, g := range c.regs {
		evs := g.events()
		for _, e := range evs {
			if !e.end.After(c.last[g.label]) {
				continue
			}
			if keep && e.trace != 0 {
				c.events = append(c.events, e)
			}
		}
		if len(evs) > 0 {
			c.last[g.label] = evs[len(evs)-1].end
		}
		if keep && c.sample != nil && !g.client {
			c.sample(g.scrape())
		}
	}
}

// finish stops the ticker, drains once more and returns every event
// seen, grouped by trace id.
func (c *collector) finish() map[uint32][]traceEvent {
	close(c.stop)
	c.done.Wait()
	c.drain(true)
	byID := make(map[uint32][]traceEvent)
	for _, e := range c.events {
		byID[e.trace] = append(byID[e.trace], e)
	}
	return byID
}

// spanSummary is what the traced run reports about one op kind.
type spanSummary struct {
	client, server, self []float64 // µs, one entry per stamped op
}

// joinSpans builds the span tree of every stamped op: the client span
// and, under it, whatever the product recorded for the same id.
// serverOps names the product events that are "the server handling the
// request" for each op kind.
func joinSpans(workers []*tracer, events map[uint32][]traceEvent, t0 time.Time, serverOps map[string]bool) (reads, writes spanSummary, all []span) {
	us := func(t time.Time) float64 { return float64(t.Sub(t0).Nanoseconds()) / 1e3 }
	for _, tr := range workers {
		for _, cs := range tr.spans {
			name, sum := "client_read", &reads
			if cs.write {
				name, sum = "client_write", &writes
			}
			parent := interval{us(cs.start), us(cs.end)}
			var children []interval
			first := len(all)
			all = append(all, span{Trace: cs.id, Name: name, Node: tr.label, Start: parent.from, Dur: parent.to - parent.from})
			for _, e := range events[cs.id] {
				iv := interval{us(e.end.Add(-e.dur)), us(e.end)}
				children = append(children, iv)
				all = append(all, span{Trace: cs.id, Name: e.what, Node: e.node, Parent: name, Start: iv.from, Dur: iv.to - iv.from, Self: iv.to - iv.from})
				if serverOps[e.what] {
					sum.server = append(sum.server, iv.to-iv.from)
				}
			}
			self := selfTime(parent, children)
			all[first].Self = self
			sum.client = append(sum.client, parent.to-parent.from)
			sum.self = append(sum.self, self)
		}
	}
	return reads, writes, all
}

// writeSpans writes the spans, one JSON object per line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
