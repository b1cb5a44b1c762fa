package rfs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vkernel/internal/ipc"
)

// Throughput benchmarks for the real file service: §3.4 page reads (one
// Send/Reply exchange, page in the reply packet) and §6.3 64 KB streamed
// reads (one MoveTo train) at 1, 4 and 16 concurrent
// clients, over both the in-memory mesh and loopback UDP sockets. The
// custom ops/s metric is the figure of merit — on a multi-core host it
// must grow with client count, since the server handles requests on a
// worker pool and the node's subsystems are independently locked.
//
// Run: go test -run=- -bench=. -benchmem ./internal/rfs/

const benchFile = 1

// benchStoreDelay is the simulated device-write latency behind the
// write benchmarks: §6.2's write path exists to keep the client from
// waiting on the server's disk, so the store must actually cost
// something to write for an ack that waited on it to show. The sleep is
// at the host's timer quantum, so ops/s here says only "acks do not
// wait for the device" (or, past the dirty budget, "they do"); the
// figure of merit of these benches is allocs/op. Reads stay instant —
// the read benches measure the RPC path against pure memory.
const benchStoreDelay = time.Millisecond

// benchEnv builds a warmed server/client pair on the given transport
// flavor with a file large enough for the access patterns below.
func benchEnv(b *testing.B, flavor string) *env {
	return benchEnvStore(b, flavor, nil)
}

func benchEnvStore(b *testing.B, flavor string, store Store) *env {
	b.Helper()
	if store == nil {
		store = NewMemStore()
	}
	var e *env
	switch flavor {
	case "mem":
		e = memEnvStore(b, store, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	case "udp":
		e = udpEnvStore(b, store, Config{})
	default:
		b.Fatalf("unknown flavor %q", flavor)
	}
	const size = 256 * 1024
	if err := e.store.Create(benchFile, size); err != nil {
		b.Fatal(err)
	}
	if err := e.store.WriteAt(benchFile, pattern(benchFile, size), 0); err != nil {
		b.Fatal(err)
	}
	return e
}

// run drives clients goroutines, each looping op until the shared
// iteration budget is spent, and reports ops/s. Each goroutine gets one
// reusable scratch buffer (the page/image buffer a real program would own)
// so that ReportAllocs measures the data path itself — client stubs, both
// nodes, transport, server, cache — as allocs/op and B/op, the figure of
// merit for the pooled zero-copy path.
func run(b *testing.B, e *env, clients int, bytesPer int, op func(c *Client, g int, scratch []byte, i int) error) {
	per := b.N/clients + 1
	if bytesPer > 0 {
		b.SetBytes(int64(bytesPer))
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c := e.client(b, fmt.Sprintf("bench%d", g))
		scratch := make([]byte, bytesPer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := op(c, g, scratch, i); err != nil {
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
	if bytesPer > 0 {
		b.ReportMetric(ops*float64(bytesPer)/(1<<20)/elapsed.Seconds(), "MB/s")
	}
}

// BenchmarkPageRead measures §3.4 page-read throughput (512 B in the
// reply packet) versus client concurrency.
func BenchmarkPageRead(b *testing.B) {
	for _, flavor := range []string{"mem", "udp"} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", flavor, clients), func(b *testing.B) {
				e := benchEnv(b, flavor)
				run(b, e, clients, 512, func(c *Client, _ int, scratch []byte, i int) error {
					_, err := c.ReadBlock(benchFile, uint32(i%256), scratch)
					return err
				})
			})
		}
	}
}

// BenchmarkPageWrite measures §3.4 page-write throughput (data inline
// with the Send packet, staged dirty, flushed behind the ack) versus
// client concurrency.
func BenchmarkPageWrite(b *testing.B) {
	for _, flavor := range []string{"mem", "udp"} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", flavor, clients), func(b *testing.B) {
				e := benchEnvStore(b, flavor, &slowStore{Store: NewMemStore(), delay: benchStoreDelay})
				page := pattern(3, 512)
				run(b, e, clients, 512, func(c *Client, _ int, _ []byte, i int) error {
					return c.WriteBlock(benchFile, uint32(i%256), page)
				})
			})
		}
	}
}

// BenchmarkReadLarge64K measures §6.3 program-load-sized streamed reads
// (64 KB in one train, its reply right behind it) versus client concurrency: the same 64 KB of a
// store-seeded file over and over, as loading one program again does.
// A large read caches nothing, so each of these is one store read too,
// as in the cold case, which reads a 4 MB store-seeded file, eight times
// the default cache, front to back. The filestore case repeats the first
// behind a FileStore, whose store read is a pread from the OS page cache.
func BenchmarkReadLarge64K(b *testing.B) {
	const size = 64 * 1024
	const coldFile, coldSize = 2, 4 << 20
	readLarge := func(file uint32, chunks int) func(*Client, int, []byte, int) error {
		return func(c *Client, _ int, scratch []byte, i int) error {
			n, err := c.ReadLarge(file, uint32(i%chunks*size), scratch)
			if err == nil && n != size {
				return fmt.Errorf("short read: %d", n)
			}
			return err
		}
	}
	for _, flavor := range []string{"mem", "udp"} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", flavor, clients), func(b *testing.B) {
				run(b, benchEnv(b, flavor), clients, size, readLarge(benchFile, 1))
			})
		}
		b.Run(flavor+"/filestore", func(b *testing.B) {
			fs, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { fs.Close() })
			run(b, benchEnvStore(b, flavor, fs), 1, size, readLarge(benchFile, 1))
		})
		b.Run(flavor+"/cold", func(b *testing.B) {
			e := benchEnv(b, flavor)
			if err := e.store.WriteAt(coldFile, pattern(coldFile, coldSize), 0); err != nil {
				b.Fatal(err)
			}
			run(b, e, 1, size, readLarge(coldFile, coldSize/size))
		})
	}
}

// BenchmarkWriteLarge64K measures streamed 64 KB writes (pushed by the
// client's kernel right behind the Send and taken by the server's one
// MoveFrom into one pooled buffer, staged as one extent and written back
// from it with one store write) versus client concurrency. Each client
// writes its own file, the program-installation shape of §6.3,
// rewriting the same 128 blocks, which never enter the block cache. The
// stream case writes a 4 MB file, eight times the default cache, front
// to back: the write path of stream_64k.
func BenchmarkWriteLarge64K(b *testing.B) {
	const size = 64 * 1024
	const streamSize = 4 << 20
	for _, flavor := range []string{"mem", "udp"} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", flavor, clients), func(b *testing.B) {
				e := benchEnvStore(b, flavor, &slowStore{Store: NewMemStore(), delay: benchStoreDelay})
				image := pattern(9, size)
				run(b, e, clients, size, func(c *Client, g int, _ []byte, i int) error {
					return c.WriteLarge(uint32(1000+g), 0, image)
				})
			})
		}
		b.Run(flavor+"/stream", func(b *testing.B) {
			e := benchEnvStore(b, flavor, &slowStore{Store: NewMemStore(), delay: benchStoreDelay})
			image := pattern(9, size)
			run(b, e, 1, size, func(c *Client, _ int, _ []byte, i int) error {
				return c.WriteLarge(2, uint32(i%(streamSize/size)*size), image)
			})
		})
	}
}

// BenchmarkPageReadBesideStream measures what a pager pays for sharing
// its workstation with a streamer: the median page-read latency of one
// client process, alone and while a second process on the same node
// loops 64 KB WriteLarge — whose 64-packet trains the streaming process
// pushes out behind each Send. "same-worker" puts the two processes'
// flows on one dispatch worker (their pids differ by the worker count),
// the worst case; "other-worker" is what consecutive Attach calls give.
func BenchmarkPageReadBesideStream(b *testing.B) {
	workers := min(max(runtime.GOMAXPROCS(0), 2), 16) // ipc's dispatcher sizing
	for _, tc := range []struct {
		name   string
		stream bool
		gap    int // processes attached between pager and streamer
	}{
		{"solo", false, 0},
		{"other-worker", true, 0},
		{"same-worker", true, workers - 1},
	} {
		b.Run("udp/"+tc.name, func(b *testing.B) {
			e := benchEnv(b, "udp")
			pager := e.client(b, "pager")
			for i := 0; i < tc.gap; i++ {
				e.client(b, "spacer")
			}
			streamer := e.client(b, "streamer")
			stop := make(chan struct{})
			done := make(chan error, 1)
			if tc.stream {
				image := pattern(9, 64*1024)
				go func() {
					for {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						if err := streamer.WriteLarge(1000, 0, image); err != nil {
							done <- err
							return
						}
					}
				}()
			}
			page := make([]byte, 512)
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				t0 := time.Now()
				if _, err := pager.ReadBlock(benchFile, uint32(i%256), page); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
			}
			b.StopTimer()
			close(stop)
			if tc.stream {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50-µs")
			b.ReportMetric(float64(lat[len(lat)*99/100])/1e3, "p99-µs")
		})
	}
}
