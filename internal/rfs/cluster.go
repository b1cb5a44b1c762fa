package rfs

import (
	"fmt"
	"net"
	"sync"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
)

// ClusterConfig describes a sharded rfs deployment for tests and
// benchmarks: K server nodes, each hosting a disjoint slice of the
// volume set, on either an in-memory mesh or loopback UDP sockets.
type ClusterConfig struct {
	// Shards is the server-node count (0 → 1).
	Shards int
	// Volumes is the full volume set, assigned round-robin across the
	// shards (volume i goes to server i mod Shards). Nil → one volume
	// per shard, ids 1..Shards.
	Volumes []uint32
	// Replicas gives every volume that many read replicas, replica r of
	// volume i hosted on server (i+r) mod Shards with its own store from
	// NewStore — so killing the primary's shard leaves r live copies.
	// Capped at Shards-1 (a replica on the primary's own shard would die
	// with it). 0 keeps the pre-replication single-copy layout.
	Replicas int
	// UDP selects loopback UDP sockets instead of the in-memory mesh.
	UDP bool
	// Seed seeds the in-memory mesh's fault rng (0 → 7); Faults is its
	// fault plan. Both are ignored over UDP.
	Seed   int64
	Faults ipc.FaultConfig
	// Node configures every node (servers and clients) in the cluster.
	Node ipc.NodeConfig
	// Server configures every rfs server.
	Server Config
	// NewStore builds the backing store for one volume (nil → MemStore).
	// Stores belong to the volume, not the server process: Kill/Restart
	// reuses them, so volume data survives a server crash the way a disk
	// survives a host reboot.
	NewStore func(vol uint32) Store
}

// ClusterServer is one shard: a node plus the rfs server on it. After
// Kill, Node and Srv are nil until Restart brings the shard back on the
// same host (and, over UDP, the same socket address).
type ClusterServer struct {
	Index int
	Host  ipc.LogicalHost
	Specs []VolumeSpec

	Node *ipc.Node
	Srv  *Server

	addr *net.UDPAddr      // UDP listen address, rebound on Restart
	utr  *ipc.UDPTransport // live UDP transport, for peer wiring; nil when dead or on mesh
}

// Cluster is the multi-server fixture: StartCluster boots the shards,
// ClientNode adds client nodes wired into the same network, and
// Kill/Restart crash and recover individual shards for failover tests.
type Cluster struct {
	cfg  ClusterConfig
	Mesh *ipc.MemNetwork // nil over UDP

	Servers []*ClusterServer
	Volumes []uint32

	mu       sync.Mutex
	nextHost ipc.LogicalHost
	clients  []*ipc.Node
}

// StartCluster boots cfg.Shards server nodes on hosts 1..K and starts
// an rfs server on each with its round-robin share of the volumes.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Volumes == nil {
		for i := 0; i < cfg.Shards; i++ {
			cfg.Volumes = append(cfg.Volumes, uint32(i+1))
		}
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(uint32) Store { return NewMemStore() }
	}
	c := &Cluster{cfg: cfg, Volumes: cfg.Volumes, nextHost: 100}
	if !cfg.UDP {
		seed := cfg.Seed
		if seed == 0 {
			seed = 7
		}
		c.Mesh = ipc.NewMemNetwork(seed, cfg.Faults)
	}
	replicas := cfg.Replicas
	if replicas > cfg.Shards-1 {
		replicas = cfg.Shards - 1
	}
	for i := 0; i < cfg.Shards; i++ {
		cs := &ClusterServer{Index: i, Host: ipc.LogicalHost(i + 1)}
		for j, vol := range cfg.Volumes {
			if j%cfg.Shards == i {
				cs.Specs = append(cs.Specs, VolumeSpec{ID: vol, Store: cfg.NewStore(vol), Replicas: replicas})
			}
			// Replica r of volume j lands r shards past its primary.
			for r := 1; r <= replicas; r++ {
				if (j+r)%cfg.Shards == i {
					cs.Specs = append(cs.Specs, VolumeSpec{
						ID:        vol,
						Store:     cfg.NewStore(vol),
						Role:      RoleReplica,
						ReplicaID: uint32(r),
					})
				}
			}
		}
		c.Servers = append(c.Servers, cs)
		if err := c.boot(cs); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// boot builds the shard's transport and node and starts its server.
// Every boot gets a fresh per-shard registry (labelled shard<i>) shared
// by the transport, node and server, so one OpQueryStats scrape of the
// shard covers net.*, ipc.* and rfs.* together — and a Restart starts
// its counters from zero, like any rebooted host would.
func (c *Cluster) boot(cs *ClusterServer) error {
	reg := obs.New()
	reg.SetNode(fmt.Sprintf("shard%d", cs.Index))
	nodeCfg := c.cfg.Node
	nodeCfg.Metrics = reg
	srvCfg := c.cfg.Server
	srvCfg.Metrics = reg
	var tr ipc.Transport
	if c.cfg.UDP {
		listen := "127.0.0.1:0"
		if cs.addr != nil { // Restart: rebind the crashed server's address
			listen = cs.addr.String()
		}
		utr, err := ipc.NewUDPTransportConfig(listen, ipc.UDPConfig{Metrics: reg})
		if err != nil {
			return fmt.Errorf("rfs: cluster shard %d: %w", cs.Index, err)
		}
		cs.addr = utr.Addr()
		cs.utr = utr
		// Cross-wire this shard with every other live shard, both ways:
		// UDP transports learn peers from inbound datagrams, but the
		// first server-to-server broadcast (a replica's GetPid for its
		// primary, a rejoin probe) needs an explicit peer entry to leave
		// the node at all.
		for _, other := range c.Servers {
			if other == cs || other.utr == nil {
				continue
			}
			utr.AddPeer(other.Host, other.addr)
			other.utr.AddPeer(cs.Host, cs.addr)
		}
		tr = utr
	} else {
		tr = c.Mesh.Transport(cs.Host)
	}
	cs.Node = ipc.NewNode(cs.Host, tr, nodeCfg)
	srv, err := StartVolumes(cs.Node, cs.Specs, srvCfg)
	if err != nil {
		_ = cs.Node.Close()
		cs.Node = nil
		cs.utr = nil
		return fmt.Errorf("rfs: cluster shard %d: %w", cs.Index, err)
	}
	cs.Srv = srv
	return nil
}

// ClientNode adds a client node to the cluster's network. Over UDP the
// node gets every shard's address as a peer; shard addresses survive
// Restart, so clients made before a crash keep working after recovery.
// The node's transport counts into the node's registry (Node.Metrics),
// so both ends of an exchange can be scraped. The node is closed by
// Cluster.Close.
func (c *Cluster) ClientNode() (*ipc.Node, error) {
	c.mu.Lock()
	host := c.nextHost
	c.nextHost++
	c.mu.Unlock()
	nodeCfg := c.cfg.Node
	if nodeCfg.Metrics == nil {
		nodeCfg.Metrics = obs.New()
	}
	var tr ipc.Transport
	if c.cfg.UDP {
		utr, err := ipc.NewUDPTransportConfig("127.0.0.1:0", ipc.UDPConfig{Metrics: nodeCfg.Metrics})
		if err != nil {
			return nil, err
		}
		for _, cs := range c.Servers {
			utr.AddPeer(cs.Host, cs.addr)
		}
		tr = utr
	} else {
		tr = c.Mesh.Transport(host)
	}
	node := ipc.NewNode(host, tr, nodeCfg)
	c.mu.Lock()
	c.clients = append(c.clients, node)
	c.mu.Unlock()
	return node, nil
}

// Kill crashes shard i: the server and its node close, in-flight and
// future requests to its volumes time out, but the volume stores keep
// their data for Restart. Safe to call on an already-dead shard.
func (c *Cluster) Kill(i int) {
	cs := c.Servers[i]
	if cs.Srv != nil {
		cs.Srv.Close()
		cs.Srv = nil
	}
	if cs.Node != nil {
		_ = cs.Node.Close()
		cs.Node = nil
	}
	cs.utr = nil
}

// Restart brings a killed shard back on the same host with the same
// volume stores. The revived server re-registers its volume names, so
// routed clients re-resolve to it on their next retry. Primary-role
// specs come back with Rejoin set: if a replica promoted while the
// shard was down, the restarted server demotes itself to a replica of
// the new primary instead of split-braining the volume.
func (c *Cluster) Restart(i int) error {
	cs := c.Servers[i]
	if cs.Srv != nil {
		return fmt.Errorf("rfs: cluster shard %d still running", i)
	}
	for j := range cs.Specs {
		if cs.Specs[j].Role == RolePrimary && cs.Specs[j].Replicas > 0 {
			cs.Specs[j].Rejoin = true
		}
	}
	return c.boot(cs)
}

// Close tears the whole cluster down: client nodes, every live shard,
// every volume store, and the mesh.
func (c *Cluster) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, n := range clients {
		_ = n.Close()
	}
	for i, cs := range c.Servers {
		c.Kill(i)
		for _, spec := range cs.Specs {
			_ = spec.Store.Close()
		}
	}
	if c.Mesh != nil {
		c.Mesh.Close()
	}
}
