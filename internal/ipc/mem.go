package ipc

import (
	"math/rand"
	"sync"
	"time"

	"vkernel/internal/bufpool"
)

// FaultConfig injects datagram pathologies into a MemNetwork, for testing
// the protocol's reliability machinery.
type FaultConfig struct {
	DropProb    float64       // lose the packet
	DupProb     float64       // deliver it twice
	CorruptProb float64       // flip a byte (caught by the packet's CRC-32C frame check)
	Delay       time.Duration // fixed delivery delay (one-way link latency)
	MaxDelay    time.Duration // uniform random delivery delay on top (reorders)
}

// MemNetwork is an in-process datagram mesh connecting Nodes, with
// deterministic-seeded fault injection. It is the test double for the UDP
// transport.
//
// Deliveries run on the same flow-ordered dispatcher as the UDP
// transports' (instead of one goroutine per packet), so handlers are
// invoked concurrently but a fault-free mesh hands each flow's packets
// over in the order they were sent; only injected delay reorders. The
// dispatcher's queues are unbounded because handlers send packets
// themselves (replies, acks): a worker blocking on a full queue while
// every other worker does the same would deadlock the mesh.
type MemNetwork struct {
	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	ports  map[LogicalHost]*memPort
	closed bool
	wg     sync.WaitGroup // in-flight deliveries, Done after the handler returns
	rx     *dispatcher[memDelivery]
}

type memDelivery struct {
	port *memPort
	buf  *bufpool.Buf // the queue's reference, released after handling
}

type memPort struct {
	net     *MemNetwork
	host    LogicalHost
	mu      sync.Mutex
	handler func(*bufpool.Buf)
	closed  bool
}

// NewMemNetwork creates a mesh with the given fault configuration.
func NewMemNetwork(seed int64, cfg FaultConfig) *MemNetwork {
	m := &MemNetwork{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		ports: make(map[LogicalHost]*memPort),
	}
	// Workers uncapped: meshes are per-test.
	m.rx = newDispatcher(dispatchWorkers(0), 0, m.handle)
	return m
}

// Transport attaches a new port for the given host.
func (m *MemNetwork) Transport(host LogicalHost) Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := &memPort{net: m, host: host}
	m.ports[host] = p
	return p
}

// Wait blocks until all in-flight deliveries complete (test helper).
func (m *MemNetwork) Wait() { m.wg.Wait() }

// Close tears the mesh down: it waits for in-flight deliveries, then
// stops the dispatcher.
func (m *MemNetwork) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	m.rx.close()
}

// handle is the dispatcher's run function: it hands packets to their
// ports.
func (m *MemNetwork) handle(_ int, batch []memDelivery) {
	for _, d := range batch {
		d.port.handle(d.buf)
		d.buf.Release()
		m.wg.Done()
	}
}

// enqueue queues one delivery on the worker its flow belongs to.
func (m *MemNetwork) enqueue(d memDelivery) {
	m.rx.enqueue(m.rx.workerOf(d.buf.Data), []memDelivery{d}, 1)
}

// deliver applies fault injection and schedules the packet for the target.
func (m *MemNetwork) deliver(to LogicalHost, pkt []byte) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	port := m.ports[to]
	if port == nil {
		m.mu.Unlock()
		return
	}
	cfg := m.cfg
	if cfg == (FaultConfig{}) {
		// Fault-free fast path (the benchmark configuration): one pooled
		// copy, scheduled directly, no shipment bookkeeping.
		buf := bufpool.Get(len(pkt))
		copy(buf.Data, pkt)
		m.wg.Add(1)
		m.mu.Unlock()
		m.enqueue(memDelivery{port: port, buf: buf})
		return
	}
	copies := 1
	if cfg.DropProb > 0 && m.rng.Float64() < cfg.DropProb {
		copies = 0
	} else if cfg.DupProb > 0 && m.rng.Float64() < cfg.DupProb {
		copies = 2
	}
	type shipment struct {
		buf   *bufpool.Buf
		delay time.Duration
	}
	ships := make([]shipment, 0, copies)
	for i := 0; i < copies; i++ {
		// Each delivery gets its own pooled copy (Send only borrows pkt,
		// and fault injection mutates per copy), recycled after dispatch.
		buf := bufpool.Get(len(pkt))
		copy(buf.Data, pkt)
		if cfg.CorruptProb > 0 && m.rng.Float64() < cfg.CorruptProb {
			buf.Data[m.rng.Intn(len(buf.Data))] ^= 0xA5
		}
		d := cfg.Delay
		if cfg.MaxDelay > 0 {
			d += time.Duration(m.rng.Int63n(int64(cfg.MaxDelay)))
		}
		ships = append(ships, shipment{buf: buf, delay: d})
	}
	m.wg.Add(len(ships))
	m.mu.Unlock()

	for _, s := range ships {
		d := memDelivery{port: port, buf: s.buf}
		if s.delay > 0 {
			// Delayed packets hold a timer, not a worker, so a small pool
			// cannot be starved by sleeps.
			time.AfterFunc(s.delay, func() { m.enqueue(d) })
		} else {
			m.enqueue(d)
		}
	}
}

// handle invokes the port's handler, if attached and open.
func (p *memPort) handle(f *bufpool.Buf) {
	p.mu.Lock()
	h := p.handler
	closed := p.closed
	p.mu.Unlock()
	if h != nil && !closed {
		h(f)
	}
}

// Send implements Transport.
func (p *memPort) Send(to LogicalHost, pkt []byte) error {
	p.net.deliver(to, pkt)
	return nil
}

// Broadcast implements Transport.
func (p *memPort) Broadcast(pkt []byte) error {
	p.net.mu.Lock()
	hosts := make([]LogicalHost, 0, len(p.net.ports))
	for h := range p.net.ports {
		if h != p.host {
			hosts = append(hosts, h)
		}
	}
	p.net.mu.Unlock()
	for _, h := range hosts {
		p.net.deliver(h, pkt)
	}
	return nil
}

// SetHandler implements Transport.
func (p *memPort) SetHandler(h func(*bufpool.Buf)) {
	p.mu.Lock()
	p.handler = h
	p.mu.Unlock()
}

// Close implements Transport.
func (p *memPort) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return nil
}
