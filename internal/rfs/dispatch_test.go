package rfs

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// TestDispatchStatusByOp pins the reply status of every opcode at the
// three places a request can land: a volume the server does not host,
// an in-sync replica of the volume, and its primary. Each request is a
// raw message (file 7, word 3 zero, count zero, no segment), sent in
// ascending opcode order, so the earlier cells' side effects on the
// primary (a zero-length write creates file 7) are part of the pin.
// Opcodes the file server process does not serve — 0, the callback and
// replica-apply ops 10/17, the retired 13, 14 and 18, and anything past
// the last — must answer like any unknown word.
func TestDispatchStatusByOp(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2, Volumes: []uint32{0, 1}, Replicas: 1})
	// Volume 0's primary is shard 0, its replica shard 1.
	primary, replica := c.Servers[0].Srv, c.Servers[1].Srv
	waitUntil(t, 5*time.Second, "volume 0's replica in-sync and serving", func() bool {
		return primary.volumes[0].repl.insyncCount() == 1 && replica.volumes[0].readable()
	})
	p := attach(t, clientNode(t, c), "prober")

	const (
		ok     = StatusOK
		bad    = StatusBadRequest
		noFile = StatusNoFile
		noVol  = StatusNoVolume
	)
	// Columns: unhosted volume, in-sync replica, primary.
	want := map[uint32][3]uint32{
		0:               {noVol, noVol, bad},
		OpReadBlock:     {noVol, noFile, noFile},
		OpWriteBlock:    {noVol, noVol, ok},
		OpReadLarge:     {noVol, noFile, ok},
		OpWriteLarge:    {noVol, noVol, ok},
		OpQueryFile:     {noVol, noFile, ok},
		OpCreateFile:    {noVol, noVol, ok},
		OpSync:          {noVol, noVol, ok},
		OpRegisterCache: {noVol, noVol, ok},
		OpReleaseCache:  {noVol, noVol, ok},
		OpInvalidate:    {noVol, noVol, bad},
		OpQueryVolumes:  {ok, ok, ok},
		OpRepJoin:       {noVol, noVol, bad}, // no 8-byte pid segment
		13:              {noVol, noVol, bad}, // retired: replica-driven pull
		14:              {noVol, noVol, bad}, // retired: snapshot file catalog
		OpRepHeartbeat:  {noVol, noVol, ok},
		OpQueryReplicas: {noVol, noVol, ok},
		OpReplicate:     {noVol, noVol, bad},
		18:              {noVol, noVol, bad}, // retired: per-record create push
		OpQueryStats:    {ok, ok, ok},
		20:              {noVol, noVol, bad},
		0xFFFFFFFF:      {noVol, noVol, bad},
	}
	opcodes := make([]uint32, 0, len(want))
	for op := range want {
		opcodes = append(opcodes, op)
	}
	sort.Slice(opcodes, func(i, j int) bool { return opcodes[i] < opcodes[j] })

	targets := []struct {
		name string
		srv  *Server
		vol  uint32
	}{
		{"unhosted volume", primary, 99},
		{"in-sync replica", replica, 0},
		{"primary", primary, 0},
	}
	badBefore := srvCounter(primary, "rfs.bad_requests") + srvCounter(replica, "rfs.bad_requests")
	var badCells int64
	for col, tg := range targets {
		for _, op := range opcodes {
			m := buildRequest(tg.vol, op, 7, 0, 0)
			if err := p.Send(&m, tg.srv.Pid(), nil); err != nil {
				t.Fatalf("%s: op %d: %v", tg.name, op, err)
			}
			wantStatus := want[op][col]
			if got, _ := parseReply(&m); got != wantStatus {
				t.Errorf("%s: op %d answered status %d, want %d", tg.name, op, got, wantStatus)
			}
			if wantStatus == bad {
				badCells++
			}
		}
	}
	badAfter := srvCounter(primary, "rfs.bad_requests") + srvCounter(replica, "rfs.bad_requests")
	if got := badAfter - badBefore; got != badCells {
		t.Errorf("rfs.bad_requests moved by %d, want %d (one per BadRequest cell)", got, badCells)
	}
}

// rfsNames lists the rfs.* metric names in a registry, sorted.
func rfsNames(r *obs.Registry) []string {
	var names []string
	add := func(name string, _ int64) {
		if strings.HasPrefix(name, "rfs.") {
			names = append(names, name)
		}
	}
	r.Do(add, add, func(name string, _ obs.HistStat) { add(name, 0) })
	sort.Strings(names)
	return names
}

// TestRegistrySchema pins the rfs.* metric names a server registers —
// the scrape schema cmd/vstat and the benchmark read by name. A fresh
// one-volume server and a replicated primary register the same set, up
// to the volume id in the per-volume gauges.
func TestRegistrySchema(t *testing.T) {
	server := []string{
		"rfs.bad_requests",
		"rfs.bytes_read",
		"rfs.bytes_written",
		"rfs.cache_callback_errs",
		"rfs.cache_callback_timeouts",
		"rfs.cache_callbacks",
		"rfs.cache_callbacks_abandoned",
		"rfs.cache_lease_expiries",
		"rfs.cache_registrations",
		"rfs.cache_watchers",
		"rfs.creates",
		"rfs.large_reads",
		"rfs.large_writes",
		"rfs.op.create_file",
		"rfs.op.other",
		"rfs.op.query_file",
		"rfs.op.query_stats",
		"rfs.op.query_volumes",
		"rfs.op.read_block",
		"rfs.op.read_large",
		"rfs.op.register_cache",
		"rfs.op.release_cache",
		"rfs.op.repl_control",
		"rfs.op.sync",
		"rfs.op.write_block",
		"rfs.op.write_large",
		"rfs.page_reads",
		"rfs.page_writes",
		"rfs.promotions",
		"rfs.queries",
		"rfs.repl_applied",
		"rfs.repl_resyncs",
		"rfs.requests",
		"rfs.stat_scrapes",
		"rfs.syncs",
	}
	volume := []string{
		"cache_hits",
		"cache_misses",
		"dirty_blocks",
		"flush_errs",
		"flush_runs",
		"flushed_blocks",
		"repl_insync",
		"repl_lag",
		"repl_seq",
		"role",
		"staged_extents",
		"writeback_drops",
	}
	schema := func(vol uint32) []string {
		names := append([]string(nil), server...)
		for _, g := range volume {
			names = append(names, fmt.Sprintf("rfs.vol%d.%s", vol, g))
		}
		sort.Strings(names)
		return names
	}

	mesh := ipc.NewMemNetwork(7, ipc.FaultConfig{})
	defer mesh.Close()
	node := ipc.NewNode(1, mesh.Transport(1), ipc.NodeConfig{})
	defer node.Close()
	reg := obs.New()
	srv, err := Start(node, NewMemStore(), Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got, want := rfsNames(reg), schema(DefaultVolume); !reflect.DeepEqual(got, want) {
		t.Errorf("one-volume server registers\n%v\nwant\n%v", got, want)
	}

	c := startCluster(t, replConfig(false))
	if got, want := rfsNames(c.Servers[0].Srv.Metrics()), schema(1); !reflect.DeepEqual(got, want) {
		t.Errorf("replicated primary registers\n%v\nwant\n%v", got, want)
	}
}

// FuzzDecodeIDs: a client decodes OpQueryVolumes' and OpQueryReplicas'
// id lists from whatever segment a server wrote. Whatever the bytes and
// count, decodeIDs must not panic, must refuse exactly the counts that
// overrun the segment, and the ids it accepts must re-encode to the
// segment's prefix they came from.
func FuzzDecodeIDs(f *testing.F) {
	f.Add(encodeIDs([]uint32{1, 2, 0xFFFFFFFF}, 64), uint32(3))
	f.Add([]byte{0, 0, 0, 1, 0, 0}, uint32(2))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 2, 3, 4}, uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, seg []byte, count uint32) {
		ids, ok := decodeIDs[uint32](seg, count)
		if ok != (count <= uint32(len(seg)/4)) {
			t.Fatalf("count %d over %d bytes: ok = %v", count, len(seg), ok)
		}
		if !ok {
			return
		}
		if len(ids) != int(count) {
			t.Fatalf("decoded %d ids, want %d", len(ids), count)
		}
		// encodeIDs caps a list at one reply packet.
		n := min(int(count), vproto.MaxData/4)
		if enc := encodeIDs(ids, 4*count); !bytes.Equal(enc, seg[:4*n]) {
			t.Fatalf("re-encoding gives %x, want %x", enc, seg[:4*n])
		}
	})
}
