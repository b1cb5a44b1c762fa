package rfs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Head-to-head benchmarks for the §6.2 question: does a client-side
// block cache pay for itself on the real runtime, or does the paper's
// "server-memory caching over fast IPC is enough" hold?
//
//   - CCacheWarmRead: a warm working set read repeatedly — the client
//     cache's best case. "off" is the plain stub client (every read is a
//     network exchange against the server's block cache); "on" serves
//     hits from local memory.
//   - CCacheSharedWrite: a write-heavy shared-file mix — the client
//     cache's worst case: every write pays an invalidation callback
//     round to every other registered client before it is acknowledged.
//     Its repl-mem and repl-udp flavours put the file on a replicated
//     volume (a primary and one in-sync replica), so each write's
//     callbacks overlap its replica push.
//
// Run: make bench-ccache

// pageClient is the slice of the client API the comparison drives; both
// *Client and *CachingClient implement it.
type pageClient interface {
	ReadBlock(file, block uint32, dst []byte) (int, error)
	WriteBlock(file, block uint32, data []byte) error
}

// opener binds the named benchmark client: a CachingClient (with its
// callback process) when cached is set, else a plain Client.
type opener func(name string, cached bool) pageClient

// envOpener opens clients against a single server.
func envOpener(b *testing.B, e *env) opener {
	return func(name string, cached bool) pageClient {
		if cached {
			return e.cachingClient(b, name, CacheClientConfig{})
		}
		return e.client(b, name)
	}
}

// replOpener boots a primary and one in-sync replica of volume 1, each
// store holding the benchmark file, and opens clients routed to the
// primary.
func replOpener(b *testing.B, udp bool) opener {
	const size = 256 * 1024
	c := startCluster(b, ClusterConfig{Shards: 2, Volumes: []uint32{1}, Replicas: 1, UDP: udp,
		NewStore: func(uint32) Store {
			st := NewMemStore()
			if err := st.Create(benchFile, size); err != nil {
				b.Fatal(err)
			}
			if err := st.WriteAt(benchFile, pattern(benchFile, size), 0); err != nil {
				b.Fatal(err)
			}
			return st
		}})
	waitUntil(b, 5*time.Second, "the replica in-sync", func() bool {
		return c.Servers[0].Srv.volumes[1].repl.insyncCount() == 1 && c.Servers[1].Srv.volumes[1].rv.eligible.Load()
	})
	node := clientNode(b, c)
	router := newRouter(b, node)
	return func(name string, cached bool) pageClient {
		p := attach(b, node, name)
		if !cached {
			return NewVolumeClient(p, router, 1)
		}
		cc, err := NewVolumeCachingClient(p, router, 1, CacheClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cc.Close)
		return cc
	}
}

// runPage is the ccache twin of run: clients goroutines, each on a
// client from open, loop op over a shared iteration budget.
func runPage(b *testing.B, open opener, clients int, cached bool, bytesPer int,
	warm func(c pageClient) error,
	op func(c pageClient, g, i int, scratch []byte) error) {
	per := b.N/clients + 1
	if bytesPer > 0 {
		b.SetBytes(int64(bytesPer))
	}
	b.ReportAllocs()
	cs := make([]pageClient, clients)
	for g := 0; g < clients; g++ {
		cs[g] = open(fmt.Sprintf("bench%d", g), cached)
		if warm != nil {
			if err := warm(cs[g]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		g := g
		scratch := make([]byte, 512)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := op(cs[g], g, i, scratch); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ops := float64(per * clients)
	b.ReportMetric(ops/elapsed.Seconds(), "ops/s")
}

var ccacheModes = []struct {
	name   string
	cached bool
}{
	{"off", false},
	{"on", true},
}

// BenchmarkCCacheWarmRead: repeated page reads of a warm 32 KB working
// set on a shared file, client cache on vs. off, 1/4/16 clients, mem and
// udp. ns/op is the warm-read latency; with the cache on, hits never
// leave the client.
func BenchmarkCCacheWarmRead(b *testing.B) {
	const warmBlocks = 64
	for _, flavor := range []string{"mem", "udp"} {
		for _, mode := range ccacheModes {
			for _, clients := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/clients=%d", flavor, mode.name, clients), func(b *testing.B) {
					e := benchEnv(b, flavor)
					warm := func(c pageClient) error {
						buf := make([]byte, 512)
						for blk := uint32(0); blk < warmBlocks; blk++ {
							if _, err := c.ReadBlock(benchFile, blk, buf); err != nil {
								return err
							}
						}
						return nil
					}
					runPage(b, envOpener(b, e), clients, mode.cached, 512, warm,
						func(c pageClient, _, i int, scratch []byte) error {
							_, err := c.ReadBlock(benchFile, uint32(i%warmBlocks), scratch)
							return err
						})
				})
			}
		}
	}
}

// BenchmarkCCacheSharedWrite: the counter-case — a 1-write-in-4 mix on
// one shared file all clients have registered. Every write stalls on an
// invalidation callback to each other client, so past one client the
// cached configuration should LOSE to the plain stubs; the margin is the
// price of client-cache consistency on this runtime. On the replicated
// flavours a write also waits for the replica's ack, overlapped with the
// callbacks.
func BenchmarkCCacheSharedWrite(b *testing.B) {
	const hotBlocks = 16
	for _, flavor := range []string{"mem", "udp", "repl-mem", "repl-udp"} {
		for _, mode := range ccacheModes {
			for _, clients := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/clients=%d", flavor, mode.name, clients), func(b *testing.B) {
					var open opener
					if repl, udp := strings.CutPrefix(flavor, "repl-"); udp {
						open = replOpener(b, repl == "udp")
					} else {
						open = envOpener(b, benchEnv(b, flavor))
					}
					page := pattern(3, 512)
					warm := func(c pageClient) error {
						buf := make([]byte, 512)
						for blk := uint32(0); blk < hotBlocks; blk++ {
							if _, err := c.ReadBlock(benchFile, blk, buf); err != nil {
								return err
							}
						}
						return nil
					}
					runPage(b, open, clients, mode.cached, 512, warm,
						func(c pageClient, g, i int, scratch []byte) error {
							blk := uint32(i % hotBlocks)
							if i%4 == 0 {
								return c.WriteBlock(benchFile, blk, page)
							}
							_, err := c.ReadBlock(benchFile, blk, scratch)
							return err
						})
				})
			}
		}
	}
}
