package rfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/vproto"
)

// This file is the replica side of volume replication: the apply
// process the primary pushes record batches to, the control loop that
// joins a primary (snapshot-resyncing first when its log no longer
// reaches us), heartbeats a lease on the primary, and — on lease
// expiry — promotes the deterministic candidate (lowest in-sync replica
// id) to primary.
//
// A replica serves reads only while its primary counts it in-sync (the
// last heartbeat reply said so); everything mutating is answered with
// StatusNoVolume so the existing reroute machinery pins writers to the
// primary. The staleness bound follows: a replica cut from its primary
// serves reads for at most one heartbeat lease before it stops
// answering, and in-sync replicas are never stale at all — the primary
// acks a write only after they applied it.

// resyncGrant sizes the snapshot-resync buffers: the file catalog grant
// and each large read of a file's bytes.
const resyncGrant = 2 * maxTrain

// errReplicaStopped reports the control loop was asked to shut down.
var errReplicaStopped = errors.New("rfs: replica stopped")

// heartbeatLoop results.
type hbResult int

const (
	hbStop    hbResult = iota // server closing
	hbRejoin                  // primary disowned us (or the volume); rejoin
	hbExpired                 // lease lapsed: the primary is presumed dead
)

// replicaVol runs one volume in replica role.
type replicaVol struct {
	s   *Server
	v   *volume
	rid uint32

	apply *ipc.Proc // receives OpReplicate batches
	ctl   *ipc.Proc // the control loop's join/resync/heartbeat endpoint

	// applyMu orders record application (applyLoop) against a snapshot
	// resync (the control loop).
	applyMu     sync.Mutex
	lastApplied atomic.Uint32
	// serving: the primary's last heartbeat counted us in-sync, so reads
	// may be answered from the replicated store.
	serving atomic.Bool
	// eligible: we were in-sync at last contact — the precondition for
	// promoting (promoting from behind would lose acked writes).
	eligible atomic.Bool
	// candidate is the promotion candidate rid from the last heartbeat.
	candidate atomic.Uint32
	promoted  atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// startReplica spawns the volume's apply process and control endpoint.
// The control loop itself starts later (start), once the server process
// exists — the join message names it as the read-set member.
func (s *Server) startReplica(v *volume, rid uint32) (*replicaVol, error) {
	rv := &replicaVol{s: s, v: v, rid: rid, stop: make(chan struct{})}
	apply, err := s.node.Spawn(fmt.Sprintf("rfs-apply-v%d", v.id), rv.applyLoop)
	if err != nil {
		return nil, err
	}
	rv.apply = apply
	ctl, err := s.node.Attach(fmt.Sprintf("rfs-replica-v%d", v.id))
	if err != nil {
		s.node.Detach(apply)
		return nil, err
	}
	rv.ctl = ctl
	return rv, nil
}

// start launches the control loop.
func (rv *replicaVol) start() {
	rv.wg.Add(1)
	go rv.run()
}

// close stops the control loop and releases the replica's processes.
// Blocked exchanges bound the wait (one retransmit budget at worst).
func (rv *replicaVol) close() {
	rv.stopOnce.Do(func() { close(rv.stop) })
	rv.wg.Wait()
	rv.s.node.Detach(rv.ctl)
	rv.s.node.Detach(rv.apply)
}

// stopped reports whether close was requested.
func (rv *replicaVol) stopped() bool {
	select {
	case <-rv.stop:
		return true
	default:
		return false
	}
}

// sleepStop sleeps d unless close is requested first; it reports
// whether the loop should keep running.
func (rv *replicaVol) sleepStop(d time.Duration) bool {
	select {
	case <-rv.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// applyLoop receives pushed batches from the primary's sender. Each
// batch is one exchange: its head inline with the Send, the remainder
// pulled with MoveFrom (the page-write pattern), its records applied in
// sequence order, acked with the status of the first that did not apply
// (OK when all did) and the replica's last applied sequence. The
// receive buffer holds what a Send can carry inline; a batch longer
// than that trades it for one its own size.
func (rv *replicaVol) applyLoop(p *ipc.Proc) {
	for {
		f := bufpool.Get(vproto.MaxData)
		msg, src, n, err := p.ReceiveWithSegment(f.Data)
		if err != nil {
			f.Release()
			return
		}
		op, _, _, count := parseRequest(&msg)
		status := uint32(StatusBadRequest)
		switch {
		case rv.promoted.Load():
			// We are the primary now; a push means a stale ex-primary is
			// still alive. Refuse so its sender drops the connection.
			status = StatusNoVolume
		case op == OpReplicate && count <= maxTrain+repRecordHeader:
			got := min(uint32(n), count)
			if int(count) > len(f.Data) {
				whole := bufpool.Get(int(count))
				copy(whole.Data, f.Data[:got])
				f.Release()
				f = whole
			}
			status = StatusOK
			if got < count {
				if err := p.MoveFrom(src, got, f.Data[got:count]); err != nil {
					status = StatusBadRequest
				}
			}
			if status == StatusOK {
				status = rv.applyBatch(f.Data[:count])
			}
		}
		f.Release()
		m := buildReply(status, rv.lastApplied.Load())
		_ = p.Reply(&m, src)
	}
}

// applyBatch applies a batch's records in order and stops at the first
// that does not apply, returning its status; a record cut short by the
// end of the batch is a BadRequest.
func (rv *replicaVol) applyBatch(batch []byte) uint32 {
	for len(batch) > 0 {
		rec, n, ok := decodeRepRecord(batch)
		if !ok {
			return StatusBadRequest
		}
		if status := rv.applyRecord(&rec); status != StatusOK {
			return status
		}
		batch = batch[n:]
	}
	return StatusOK
}

// applyRecord applies one record to the replicated store: writes go
// store-first then invalidate the cached blocks (the cache's generation
// stamps keep a racing read fill from caching pre-write bytes), creates
// truncate through the cache.
// Duplicates (a retransmitted push) ack silently; a sequence gap is
// refused — the primary drops the connection and the replica rejoins.
// A traced record logs a span event on the replica's own trace ring —
// the remote leg of a multi-node write timeline.
func (rv *replicaVol) applyRecord(rec *repRecord) uint32 {
	rv.applyMu.Lock()
	defer rv.applyMu.Unlock()
	last := rv.lastApplied.Load()
	if rec.seq <= last {
		return StatusOK
	}
	if rec.seq != last+1 {
		return StatusRepGap
	}
	v, file, off := rv.v, rec.file, rec.off
	switch rec.kind {
	case repKindWrite:
		if err := v.store.WriteAt(file, rec.data, int64(off)); err != nil {
			return StatusIOError
		}
		bs := uint32(rv.s.cfg.BlockSize)
		end := off
		if len(rec.data) > 0 {
			end = off + uint32(len(rec.data)) - 1
		}
		for blk := off / bs; blk <= end/bs; blk++ {
			v.cache.invalidate(blockID{file: file, block: blk})
		}
	case repKindCreate:
		err := v.cache.truncate(file, func() error {
			return v.store.Create(file, int64(off))
		})
		if err != nil {
			return StatusIOError
		}
	default:
		return StatusBadRequest
	}
	rv.lastApplied.Store(rec.seq)
	rv.s.stats.replApplied.Add(1)
	if rec.trace != 0 {
		rv.s.metrics.Trace().Record(rec.trace, "repl.apply", uint64(rec.seq), 0)
	}
	return StatusOK
}

// run is the control loop: resolve the volume's primary through the
// name service, enroll (resyncing from a snapshot first when the primary
// directs; otherwise its sender pushes us any gap), then heartbeat until
// the lease lapses or we are disowned.
// When nobody advertises the volume and the lease has lapsed, the
// promotion rule runs (see shouldPromote).
func (rv *replicaVol) run() {
	defer rv.wg.Done()
	lease := rv.s.cfg.ReplicaLease
	hb := lease / 4
	lastSeen := time.Now()
	for !rv.stopped() {
		pid := rv.ctl.GetPid(LogicalVolumeBase+rv.v.id, ipc.ScopeRemote)
		if rv.stopped() {
			return
		}
		if pid == vproto.Nil {
			if rv.shouldPromote(lastSeen, lease) {
				rv.promote()
				return
			}
			if !rv.sleepStop(hb) {
				return
			}
			continue
		}
		seq, flags, status, err := rv.joinPrimary(pid)
		if err != nil || (status != StatusOK && status != StatusRepSnapshot) {
			// Dead between resolve and join, or a stale advertiser.
			if !rv.sleepStop(hb) {
				return
			}
			continue
		}
		lastSeen = time.Now()
		switch {
		case status == StatusRepSnapshot:
			if err := rv.resync(pid); err != nil {
				if !rv.sleepStop(hb) {
					return
				}
			}
		case flags&repJoinPush != 0:
			if seq == rv.lastApplied.Load() {
				rv.serving.Store(true)
				rv.eligible.Store(true)
			}
			switch rv.heartbeatLoop(pid, &lastSeen, lease, hb) {
			case hbStop:
				return
			case hbRejoin:
				// loop: re-resolve and rejoin
			case hbExpired:
				// loop: the resolve-fails branch runs the promotion rule
			}
		default:
			if !rv.sleepStop(hb) {
				return
			}
		}
	}
}

// joinPrimary sends OpRepJoin, granting the 8-byte pid pair.
func (rv *replicaVol) joinPrimary(primary ipc.Pid) (seq, flags, status uint32, err error) {
	var pids [8]byte
	binary.BigEndian.PutUint32(pids[0:], uint32(rv.apply.Pid()))
	binary.BigEndian.PutUint32(pids[4:], uint32(rv.s.proc.Pid()))
	m := buildRequest(rv.v.id, OpRepJoin, rv.rid, rv.lastApplied.Load(), 8)
	seg := ipc.Segment{Data: pids[:], Access: ipc.SegRead}
	if err := rv.ctl.Send(&m, primary, &seg); err != nil {
		return 0, 0, 0, err
	}
	status, _ = parseReply(&m)
	seq, flags = repJoinReply(&m)
	return seq, flags, status, nil
}

// heartbeatLoop renews the lease every hb until it lapses (the primary
// stopped answering for a whole lease) or the primary disowns us.
func (rv *replicaVol) heartbeatLoop(primary ipc.Pid, lastSeen *time.Time, lease, hb time.Duration) hbResult {
	for {
		if !rv.sleepStop(hb) {
			return hbStop
		}
		m := buildRequest(rv.v.id, OpRepHeartbeat, rv.rid, rv.lastApplied.Load(), 0)
		err := rv.ctl.Send(&m, primary, nil)
		if err == nil {
			status, _ := parseReply(&m)
			if status == StatusOK {
				*lastSeen = time.Now()
				_, cand, flags := repHeartbeatReply(&m)
				rv.candidate.Store(cand)
				if flags&repHBUnknown != 0 {
					rv.serving.Store(false)
					rv.eligible.Store(false)
					return hbRejoin
				}
				inSync := flags&repHBInSync != 0
				rv.serving.Store(inSync)
				rv.eligible.Store(inSync)
				continue
			}
			// StatusNoVolume: the advertiser is no longer this volume's
			// primary (demoted, or a stale route) — re-resolve.
			rv.serving.Store(false)
			return hbRejoin
		}
		if time.Since(*lastSeen) > lease {
			// Presumed dead. Stop serving reads — from here our copy may
			// go stale if a peer promotes and takes writes.
			rv.serving.Store(false)
			return hbExpired
		}
	}
}

// shouldPromote is the failover rule. Only a replica that was in-sync
// at last contact may promote (promoting from behind would lose acked
// writes). The heartbeat-announced candidate (lowest in-sync rid)
// promotes as soon as the lease lapses; everyone else waits rid-scaled
// extra leases while probing for a new primary, so exactly one replica
// moves first and the others find it through the name service.
func (rv *replicaVol) shouldPromote(lastSeen time.Time, lease time.Duration) bool {
	if !rv.eligible.Load() {
		return false
	}
	idle := time.Since(lastSeen)
	if idle <= lease {
		return false
	}
	if rv.candidate.Load() == rv.rid {
		return true
	}
	rank := time.Duration(rv.rid)
	if rank > 8 {
		rank = 8
	}
	return idle > lease+rank*lease
}

// promote flips the volume to primary: fresh replication state seeded
// at our last applied sequence, role flipped (the write path starts
// accepting), and the volume's logical name re-registered so routed
// clients — whose cached routes to the dead primary draw Nacks — find
// us on their next broadcast resolve.
func (rv *replicaVol) promote() {
	s, v := rv.s, rv.v
	rv.promoted.Store(true)
	v.repl = newReplState(s, v.id, rv.lastApplied.Load())
	v.role.Store(rolePrimary)
	rv.serving.Store(true)
	s.proc.SetPid(LogicalVolumeBase+v.id, s.proc.Pid(), ipc.ScopeBoth)
	s.stats.promotions.Add(1)
}

// resync rebuilds the replicated store from a primary snapshot: the
// catch-up log no longer reaches our position, so enumerate the
// primary's files (OpRepFiles — which flushes its staged writes and
// stamps the snapshot sequence first, so anything newer is replayed on
// top), stream each one over with large reads, drop local files the
// primary no longer has, and adopt the snapshot sequence.
func (rv *replicaVol) resync(primary ipc.Pid) error {
	rv.s.stats.replResyncs.Add(1)
	grant := make([]byte, resyncGrant)
	m := buildRequest(rv.v.id, OpRepFiles, 0, 0, uint32(len(grant)))
	seg := ipc.Segment{Data: grant, Access: ipc.SegWrite}
	if err := rv.ctl.Send(&m, primary, &seg); err != nil {
		return err
	}
	if status, _ := parseReply(&m); status != StatusOK {
		return fmt.Errorf("%w: files status %d", ErrBadStatus, status)
	}
	entries, snapSeq := repFilesReply(&m)
	if int(entries)*repFileEntry > len(grant) {
		return errors.New("rfs: oversized file catalog")
	}

	rv.applyMu.Lock()
	defer rv.applyMu.Unlock()
	v := rv.v
	cl := &Client{p: rv.ctl, server: primary, vol: v.id, retry: DefaultRetryPolicy, sleep: time.Sleep}
	want := make(map[uint32]bool, entries)
	buf := make([]byte, resyncGrant)
	for i := uint32(0); i < entries; i++ {
		ent := grant[int(i)*repFileEntry:]
		file := binary.BigEndian.Uint32(ent)
		size := int64(binary.BigEndian.Uint64(ent[4:]))
		want[file] = true
		err := v.cache.truncate(file, func() error {
			return v.store.Create(file, size)
		})
		if err != nil {
			return err
		}
		for off := int64(0); off < size; {
			n := size - off
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			got, err := cl.ReadLarge(file, uint32(off), buf[:n])
			if err != nil {
				return err
			}
			if got > 0 {
				if err := v.store.WriteAt(file, buf[:got], off); err != nil {
					return err
				}
			}
			if int64(got) < n {
				break // the file shrank mid-copy; newer records fix it up
			}
			off += int64(got)
		}
		if rv.stopped() {
			return errReplicaStopped
		}
	}
	local, err := v.store.Files()
	if err != nil {
		return err
	}
	for _, file := range local {
		if !want[file] {
			err := v.cache.truncate(file, func() error {
				return v.store.Create(file, 0)
			})
			if err != nil {
				return err
			}
		}
	}
	rv.lastApplied.Store(snapSeq)
	return nil
}
