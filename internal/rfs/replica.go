package rfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/vproto"
)

// This file is the replica side of volume replication: the apply
// process the primary pushes record batches to (a snapshot among them,
// when the primary's log no longer reaches us), the control loop that
// joins a primary, heartbeats a lease on it, and — on lease expiry —
// promotes the deterministic candidate (lowest in-sync replica id) to
// primary.
//
// A replica serves reads only while its primary counts it in-sync (the
// last heartbeat reply said so); everything mutating is answered with
// StatusNoVolume so the existing reroute machinery pins writers to the
// primary. The staleness bound follows: a replica cut from its primary
// serves reads for at most one heartbeat lease before it stops
// answering, and in-sync replicas are never stale at all — the primary
// acks a write only after they applied it.

// replicaVol runs one volume in replica role.
type replicaVol struct {
	s   *Server
	v   *volume
	rid uint32

	apply *ipc.Proc // receives OpReplicate batches
	ctl   *ipc.Proc // the control loop's join/heartbeat endpoint

	lastApplied atomic.Uint32
	// snapshotting: a snapshot's begin record has applied and its end
	// record not yet; snapSeq is its sequence. Only the applier touches
	// them.
	snapshotting bool
	snapSeq      uint32
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
// Outside a snapshot, duplicates (a retransmitted push) ack silently and
// a sequence gap is refused — the primary drops the connection and the
// replica rejoins. Inside one, records carry the snapshot's sequence
// and apply without moving lastApplied; the end record sets it, so a
// partial snapshot claims nothing.
// A traced record logs a span event on the replica's own trace ring —
// the remote leg of a multi-node write timeline.
func (rv *replicaVol) applyRecord(rec *repRecord) uint32 {
	switch {
	case rec.kind == repKindSnapBegin:
		return rv.beginSnapshot(rec.seq)
	case rv.snapshotting && rec.seq != rv.snapSeq:
		return StatusRepGap
	case rec.kind == repKindSnapEnd:
		if !rv.snapshotting {
			return StatusRepGap
		}
		rv.snapshotting = false
		rv.lastApplied.Store(rec.seq)
		return StatusOK
	case rv.snapshotting:
		// A snapshot record: no sequence rule.
	case rec.seq <= rv.lastApplied.Load():
		return StatusOK
	case rec.seq != rv.lastApplied.Load()+1:
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
	if !rv.snapshotting {
		rv.lastApplied.Store(rec.seq)
	}
	rv.s.stats.replApplied.Add(1)
	if rec.trace != 0 {
		rv.s.metrics.Trace().Record(rec.trace, "repl.apply", uint64(rec.seq), 0)
	}
	return StatusOK
}

// beginSnapshot starts applying a snapshot at sequence seq: the replica
// stops serving and claims nothing (lastApplied 0, not eligible to
// promote) before it truncates every local file, which the snapshot's
// create records then rebuild, so a file the primary no longer has ends
// empty.
func (rv *replicaVol) beginSnapshot(seq uint32) uint32 {
	rv.serving.Store(false)
	rv.eligible.Store(false)
	rv.lastApplied.Store(0)
	rv.snapshotting, rv.snapSeq = true, seq
	rv.s.stats.replResyncs.Add(1)
	v := rv.v
	files, err := v.store.Files()
	if err != nil {
		return StatusIOError
	}
	for _, file := range files {
		err := v.cache.truncate(file, func() error {
			return v.store.Create(file, 0)
		})
		if err != nil {
			return StatusIOError
		}
	}
	return StatusOK
}

// run is the control loop: resolve the volume's primary through the
// name service, enroll (its sender then pushes us whatever we lack),
// then heartbeat until the lease lapses or we are disowned, and start
// over. When nobody advertises the volume and the lease has lapsed, the
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
		if !rv.joinPrimary(pid) {
			// Dead between resolve and join, or a stale advertiser.
			if !rv.sleepStop(hb) {
				return
			}
			continue
		}
		lastSeen = time.Now()
		if !rv.heartbeatLoop(pid, &lastSeen, lease, hb) {
			return
		}
	}
}

// joinPrimary sends OpRepJoin, granting the 8-byte pid pair, and reports
// whether the primary enrolled us. A replica already at the primary's
// sequence is in-sync from the start (the primary counts it so at once)
// and serves straight away; any other waits for a heartbeat to say so.
func (rv *replicaVol) joinPrimary(primary ipc.Pid) bool {
	last := rv.lastApplied.Load()
	var pids [8]byte
	binary.BigEndian.PutUint32(pids[0:], uint32(rv.apply.Pid()))
	binary.BigEndian.PutUint32(pids[4:], uint32(rv.s.proc.Pid()))
	m := buildRequest(rv.v.id, OpRepJoin, rv.rid, last, 8)
	seg := ipc.Segment{Data: pids[:], Access: ipc.SegRead}
	if err := rv.ctl.Send(&m, primary, &seg); err != nil {
		return false
	}
	status, seq := parseReply(&m)
	if status != StatusOK {
		return false
	}
	if seq == last {
		rv.serving.Store(true)
		rv.eligible.Store(true)
	}
	return true
}

// heartbeatLoop renews the lease every hb until it lapses (the primary
// stopped answering for a whole lease: the caller's next resolve fails
// and the promotion rule runs) or the primary disowns us (the caller
// rejoins). It reports false when close was requested.
func (rv *replicaVol) heartbeatLoop(primary ipc.Pid, lastSeen *time.Time, lease, hb time.Duration) bool {
	for {
		if !rv.sleepStop(hb) {
			return false
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
					return true
				}
				inSync := flags&repHBInSync != 0
				rv.serving.Store(inSync)
				rv.eligible.Store(inSync)
				continue
			}
			// StatusNoVolume: the advertiser is no longer this volume's
			// primary (demoted, or a stale route) — re-resolve.
			rv.serving.Store(false)
			return true
		}
		if time.Since(*lastSeen) > lease {
			// Presumed dead. Stop serving reads — from here our copy may
			// go stale if a peer promotes and takes writes.
			rv.serving.Store(false)
			return true
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
