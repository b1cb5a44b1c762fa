// The paper's diskless-workstation story on the real runtime, now over a
// volume-sharded cluster: two file-server nodes and four diskless client
// nodes, each a separate V "kernel" with its own loopback UDP socket.
// Server A owns the shared root volume every workstation boots from;
// server B owns one private scratch volume per workstation. The clients
// have no configuration beyond the peer table — they locate each volume
// through the name service (GetPid on LogicalVolumeBase+volume) via an
// rfs.Router, so moving a volume to another server would need no client
// changes at all. Program loading is a MoveTo stream, one train per
// 64 KB (§6.3); page reads are one Send/Reply exchange each.
package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/rfs"
)

const (
	rootServerHost    = ipc.LogicalHost(1)
	scratchServerHost = ipc.LogicalHost(2)
	numClients        = 4
	rootVolume        = 1  // shared, read-mostly: program images
	scratchVolumeBase = 10 // workstation i writes volume scratchVolumeBase+i
	programFile       = 7
	programSize       = 128 * 1024
	scratchFile       = 3
	scratchSize       = 16 * 1024
)

func main() {
	// Server A: the shared root volume — the only copy of every program.
	trRoot, err := ipc.NewUDPTransport("127.0.0.1:0")
	must(err)
	rootNode := ipc.NewNode(rootServerHost, trRoot, ipc.NodeConfig{})
	defer rootNode.Close()
	rootStore := rfs.NewMemStore()
	rootSrv, err := rfs.StartVolumes(rootNode,
		[]rfs.VolumeSpec{{ID: rootVolume, Store: rootStore}},
		rfs.Config{})
	must(err)
	defer rootSrv.Close()
	fmt.Printf("root server %v on %v (volume %d)\n", rootSrv.Pid(), trRoot.Addr(), rootVolume)

	// Server B: one private scratch volume per workstation, all behind a
	// single server process but each with its own cache and flushers.
	trScratch, err := ipc.NewUDPTransport("127.0.0.1:0")
	must(err)
	scratchNode := ipc.NewNode(scratchServerHost, trScratch, ipc.NodeConfig{})
	defer scratchNode.Close()
	var scratchVols []rfs.VolumeSpec
	for i := 0; i < numClients; i++ {
		scratchVols = append(scratchVols, rfs.VolumeSpec{
			ID: scratchVolumeBase + uint32(i), Store: rfs.NewMemStore(),
		})
	}
	scratchSrv, err := rfs.StartVolumes(scratchNode, scratchVols, rfs.Config{})
	must(err)
	defer scratchSrv.Close()
	fmt.Printf("scratch server %v on %v (volumes %d..%d)\n",
		scratchSrv.Pid(), trScratch.Addr(), scratchVolumeBase, scratchVolumeBase+numClients-1)

	// Four diskless workstations, each its own node and socket. The peer
	// table is transport wiring only; which server owns which volume is
	// discovered, not configured.
	nodes := make([]*ipc.Node, numClients)
	routers := make([]*rfs.Router, numClients)
	for i := range nodes {
		tr, err := ipc.NewUDPTransport("127.0.0.1:0")
		must(err)
		tr.AddPeer(rootServerHost, trRoot.Addr())
		tr.AddPeer(scratchServerHost, trScratch.Addr())
		nodes[i] = ipc.NewNode(ipc.LogicalHost(10+i), tr, ipc.NodeConfig{})
		defer nodes[i].Close()
		routers[i], err = rfs.NewRouter(nodes[i])
		must(err)
		defer routers[i].Close()
	}

	// One workstation installs a "program" on the shared root volume.
	image := make([]byte, programSize)
	for i := range image {
		image[i] = byte(i*7 + i/512)
	}
	installer, err := nodes[0].Attach("installer")
	must(err)
	cl := rfs.NewVolumeClient(installer, routers[0], rootVolume)
	must(cl.WriteLarge(programFile, 0, image))
	must(cl.Sync(0))
	nodes[0].Detach(installer)
	fmt.Printf("installed %d KB program as file %d on the root volume\n",
		programSize/1024, programFile)

	// Every workstation boots the program concurrently from the shared
	// root volume — §6.3's load sequence — then writes its own scratch
	// data to its private volume on the other server and reads it back.
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *ipc.Node) {
			defer wg.Done()
			proc, err := node.Attach(fmt.Sprintf("shell%d", i))
			must(err)
			defer node.Detach(proc)

			root := rfs.NewVolumeClient(proc, routers[i], rootVolume)
			start := time.Now()
			got, err := root.LoadProgram(programFile, 512)
			must(err)
			if !bytes.Equal(got, image) {
				panic(fmt.Sprintf("workstation %d loaded a corrupted image", i))
			}
			elapsed := time.Since(start)
			fmt.Printf("workstation %d loaded %d KB from volume %d in %v (%.1f MB/s)\n",
				i, len(got)/1024, rootVolume, elapsed,
				float64(len(got))/(1<<20)/elapsed.Seconds())

			// Private writes land on this workstation's own volume: no
			// sharing, so no invalidation traffic and no cross-client
			// interference at the server cache.
			scratch := rfs.NewVolumeClient(proc, routers[i], scratchVolumeBase+uint32(i))
			note := make([]byte, scratchSize)
			for j := range note {
				note[j] = byte(j ^ i)
			}
			must(scratch.WriteLarge(scratchFile, 0, note))
			must(scratch.Sync(0))
			back := make([]byte, scratchSize)
			n, err := scratch.ReadLarge(scratchFile, 0, back)
			must(err)
			if n != scratchSize || !bytes.Equal(back, note) {
				panic(fmt.Sprintf("workstation %d read back wrong scratch data", i))
			}
			fmt.Printf("workstation %d round-tripped %d KB of scratch on volume %d\n",
				i, scratchSize/1024, scratchVolumeBase+uint32(i))
		}(i, node)
	}
	wg.Wait()

	// Demand paging: each workstation reads scattered pages of the shared
	// program from the root volume.
	var pages int
	start := time.Now()
	for i, node := range nodes {
		proc, err := node.Attach(fmt.Sprintf("pager%d", i))
		must(err)
		c := rfs.NewVolumeClient(proc, routers[i], rootVolume)
		buf := make([]byte, 512)
		for b := uint32(0); b < 64; b++ {
			_, err := c.ReadBlock(programFile, (b*17+uint32(i))%256, buf)
			must(err)
			pages++
		}
		node.Detach(proc)
	}
	per := time.Since(start) / time.Duration(pages)
	fmt.Printf("%d demand page-ins across %d workstations, %v/page\n", pages, numClients, per)
	printMetrics("root server", rootSrv)
	printMetrics("scratch server", scratchSrv)
}

// printMetrics prints a server's rfs.* registry values on one line: the
// server-wide counters and the per-volume rfs.vol<id>.* gauges.
func printMetrics(label string, srv *rfs.Server) {
	var out []string
	add := func(name string, v int64) {
		if strings.HasPrefix(name, "rfs.") {
			out = append(out, fmt.Sprintf("%s=%d", name, v))
		}
	}
	srv.Metrics().Do(add, add, nil)
	fmt.Printf("%s metrics: %s\n", label, strings.Join(out, " "))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
