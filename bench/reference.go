package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// The network-penalty reference.
//
// The bench host is two virtual CPUs of a shared machine. Timing a fixed
// compute loop pinned to either CPU shows what that does: for seconds at
// a time the loop takes 1.5–1.9 times as long, on one CPU or on both,
// independently, whatever this process is doing (a neighbour on the same
// core). Between runs of one binary the measured ops per second of
// page_hot ranged from 55 000 to 82 000, the p50s by 20 %, the p99s by
// 25 %, and the ten-seed interquartile range of every metric was 12–35 %
// of its median. No estimator over the window can see past that, because
// the window is the thing that slowed down.
//
// So the benchmark measures the host next to the program, and it measures
// it the way the paper does: the network penalty (§4), the time to get a
// datagram to another process and an answer back through the kernel with
// none of this repository's code in between. Every sliceDur the workload
// stops (closed loops: the workers finish the op in flight) and, for
// refBurst, as many goroutines as the workload has clients play ping-pong
// over raw loopback UDP sockets against echo goroutines; the burst's
// median round trip is the penalty at that moment. A slice's host factor
// is the mean of the bursts before and after it over refRTTns, and every
// latency in the slice is divided by it (a rate is multiplied): times are
// reported in network penalties of their own moment, scaled so that a
// 10 µs penalty reads as µs.
//
// The reference is taken with the product idle, from sockets and
// goroutines the product never sees, so no change to the product can
// move it: a slower program is reported slower by exactly as much as it
// was measured slower (TestInjectedDelayShows). What the factor removes
// is the host: over fifteen runs per workload taken while the measured
// values spread 12–35 %, the reported p50s, ops_per_s and cpu_us_per_op
// spread 2–5 % and the tails 3–8 %. A probe inside the window (fixed work
// done by the workers between ops) was tried first and tracked the host
// less well than this, and it shared caches and the scheduler with the
// product; slices of 500 ms with 50 ms bursts followed the host's
// sub-second swings too coarsely (4–10 %).

const (
	// sliceDur is how long the workload runs between two bursts, and
	// refBurst how long a burst lasts: the reference takes a tenth of the
	// run on top of the measured window.
	sliceDur = 100 * time.Millisecond
	refBurst = 10 * time.Millisecond
	// refRTTns fixes the scale: a burst whose median round trip is this
	// long is host factor 1. Changing it would change every end-to-end
	// metric of every run by the same factor.
	refRTTns = 10000.0
)

// reference is the ping-pong fixture: per pair, a pinging socket and an
// echoing socket with its goroutine.
type reference struct {
	ping, echo []*net.UDPConn
	echoers    sync.WaitGroup
}

func newReference(pairs int) (*reference, error) {
	r := &reference{}
	listen := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	for i := 0; i < pairs; i++ {
		p, err := listen()
		if err != nil {
			r.close()
			return nil, harnessf("reference socket: %w", err)
		}
		r.ping = append(r.ping, p)
		e, err := listen()
		if err != nil {
			r.close()
			return nil, harnessf("reference socket: %w", err)
		}
		r.echo = append(r.echo, e)
		r.echoers.Add(1)
		go func() {
			defer r.echoers.Done()
			in := make([]byte, 2048)
			// A page read's shape: a small request, a page and a header back.
			out := make([]byte, 64+pageSize)
			for {
				_, from, err := e.ReadFromUDP(in)
				if err != nil {
					return // closed
				}
				if _, err := e.WriteToUDP(out, from); err != nil {
					return
				}
			}
		}()
	}
	return r, nil
}

func (r *reference) close() {
	for _, c := range r.ping {
		c.Close()
	}
	for _, c := range r.echo {
		c.Close()
	}
	r.echoers.Wait()
}

// burst plays ping-pong on every pair at once for refBurst and returns
// the median round trip in ns. The caller has stopped the workload.
func (r *reference) burst() (float64, error) {
	rtts := make([][]uint32, len(r.ping))
	errs := make([]error, len(r.ping))
	var wg sync.WaitGroup
	for i := range r.ping {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, dst := r.ping[i], r.echo[i].LocalAddr().(*net.UDPAddr)
			req := make([]byte, 64)
			in := make([]byte, 2048)
			// A lost datagram ends the run with an error instead of
			// hanging it; loopback does not lose them.
			if errs[i] = c.SetReadDeadline(time.Now().Add(5 * time.Second)); errs[i] != nil {
				return
			}
			start := time.Now()
			last := start
			for last.Sub(start) < refBurst {
				if _, errs[i] = c.WriteToUDP(req, dst); errs[i] != nil {
					return
				}
				if _, _, errs[i] = c.ReadFromUDP(in); errs[i] != nil {
					return
				}
				now := time.Now()
				rtts[i] = append(rtts[i], uint32(now.Sub(last)))
				last = now
			}
		}(i)
	}
	wg.Wait()
	var all []uint32
	for i := range rtts {
		if errs[i] != nil {
			return 0, harnessf("reference round trip: %w", errs[i])
		}
		all = append(all, rtts[i]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return float64(all[len(all)/2]), nil
}

// hostFactor turns the bursts around a stretch of work into its factor.
func hostFactor(before, after float64) float64 {
	return (before + after) / 2 / refRTTns
}

// factorSummary describes a run's factors for the stamp.
func factorSummary(f []float64) string {
	s := append([]float64(nil), f...)
	sort.Float64s(s)
	if len(s) == 0 {
		return "none"
	}
	return fmt.Sprintf("min %.2f q1 %.2f median %.2f q3 %.2f max %.2f", s[0], s[len(s)/4], s[len(s)/2], s[3*len(s)/4], s[len(s)-1])
}
