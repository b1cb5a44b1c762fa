package rfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
)

// This file is the primary side of volume replication: the sequenced
// record log, the per-replica push senders (each opening with a snapshot
// when the log does not cover its joiner), the synchronous commit the
// write path waits on, and the OpRep* control-op handlers.
//
// Ordering and durability contract: every mutation a primary
// acknowledges is (1) assigned the next per-volume sequence under the
// replication lock, (2) pushed — in sequence order, one batch exchange
// in flight per replica — to every in-sync replica, and (3)
// acknowledged to the client only after all in-sync replicas acked it
// (or were dropped from the in-sync set at ReplicaAckTimeout). A
// promoted replica therefore holds every write any client ever saw
// acknowledged, which is the no-acked-write-lost half of failover; the
// drop-on-timeout half keeps a dead replica from wedging the write path.

// repRecord is one decoded replication record; data aliases the batch
// it was decoded from. trace is the originating client's 24-bit trace
// id (0 = untraced), so a traced write's span timeline continues on
// every replica that applies it.
type repRecord struct {
	kind  byte
	file  uint32
	off   uint32 // byte offset (write) or size (create)
	seq   uint32
	trace uint32
	data  []byte
}

// encodeRepRecord lays out one record in a new owned slice: the header,
// then the payload gathered from parts. The log stores records in this
// form and a push batch is a run of them, back to back.
func encodeRepRecord(kind byte, file, off, seq, trace uint32, parts ...[]byte) []byte {
	n := repRecordHeader
	for _, p := range parts {
		n += len(p)
	}
	dst := make([]byte, repRecordHeader, n)
	dst[0] = kind
	binary.BigEndian.PutUint32(dst[1:], file)
	binary.BigEndian.PutUint32(dst[5:], off)
	binary.BigEndian.PutUint32(dst[9:], uint32(n-repRecordHeader))
	binary.BigEndian.PutUint32(dst[13:], seq)
	binary.BigEndian.PutUint32(dst[17:], trace)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// decodeRepRecord reads one record from the front of src; the returned
// record's data aliases src. ok is false when src is truncated. The
// length word comes off the wire, so it is compared unsigned: on a
// 32-bit build a length of 2^31 or more would turn negative as an int.
func decodeRepRecord(src []byte) (r repRecord, n int, ok bool) {
	if len(src) < repRecordHeader {
		return repRecord{}, 0, false
	}
	dlen := binary.BigEndian.Uint32(src[9:])
	if uint64(dlen) > uint64(len(src)-repRecordHeader) {
		return repRecord{}, 0, false
	}
	n = repRecordHeader + int(dlen)
	r = repRecord{
		kind:  src[0],
		file:  binary.BigEndian.Uint32(src[1:]),
		off:   binary.BigEndian.Uint32(src[5:]),
		seq:   binary.BigEndian.Uint32(src[13:]),
		trace: binary.BigEndian.Uint32(src[17:]),
		data:  src[repRecordHeader:n],
	}
	return r, n, true
}

// replicaConn is the primary's state for one enrolled replica.
type replicaConn struct {
	rid    uint32
	apply  ipc.Pid // the replica's per-volume apply process
	server ipc.Pid // the replica's server process (read-set member)
	// acked is the highest sequence the replica has proven applied; only
	// push acks move it (0 until a snapshot joiner's end record is acked).
	acked uint32
	// inSync: the sender has drained the backlog, so the commit path
	// waits for this replica and it is in the read set.
	inSync bool
	gone   bool
	lastHB time.Time
}

// replState is one primary volume's replication state.
type replState struct {
	s   *Server
	vol uint32

	mu   sync.Mutex
	cond *sync.Cond
	// seq is the last assigned sequence; the log holds the encoded
	// records [logStart, seq] (empty when logStart == seq+1).
	seq      uint32
	logStart uint32
	log      [][]byte
	logBytes int
	replicas map[uint32]*replicaConn
	closed   bool

	senders sync.WaitGroup
}

func newReplState(s *Server, vol, seq uint32) *replState {
	rs := &replState{
		s:        s,
		vol:      vol,
		seq:      seq,
		logStart: seq + 1,
		replicas: make(map[uint32]*replicaConn),
	}
	rs.cond = sync.NewCond(&rs.mu)
	return rs
}

// current returns the last assigned sequence.
func (rs *replState) current() uint32 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.seq
}

// append assigns the next sequence to one mutation and logs it when any
// replica is enrolled (the log only exists for catch-up; with no
// members it is emptied, so it always holds [logStart, seq], and a
// later joiner is pushed a snapshot).
// parts are gathered into the record's one owned encoding.
func (rs *replState) append(kind byte, file, off, trace uint32, parts ...[]byte) uint32 {
	rs.mu.Lock()
	rs.seq++
	seq := rs.seq
	if len(rs.replicas) == 0 {
		rs.log, rs.logBytes, rs.logStart = nil, 0, seq+1
	} else {
		rec := encodeRepRecord(kind, file, off, seq, trace, parts...)
		rs.log = append(rs.log, rec)
		rs.logBytes += len(rec)
		rs.trimLocked()
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
	return seq
}

// trimLocked bounds the log by record count and encoded bytes. Trimming
// past a lagging member's position is allowed — its sender drops it, and
// its rejoin is pushed a snapshot.
func (rs *replState) trimLocked() {
	max := rs.s.cfg.ReplicaLogMax
	maxBytes := rs.s.cfg.ReplicaLogMaxBytes
	for len(rs.log) > max || rs.logBytes > maxBytes {
		rs.logBytes -= len(rs.log[0])
		rs.log = rs.log[1:]
		rs.logStart++
	}
}

// commit blocks until every in-sync replica has acked seq, dropping
// replicas still lagging at ReplicaAckTimeout from the in-sync set (a
// dead or wedged replica costs the write path one timeout, once; the
// dropped replica rejoins through the catch-up path when it recovers).
func (rs *replState) commit(seq uint32) {
	rs.mu.Lock()
	if !rs.waitingOnLocked(seq) {
		rs.mu.Unlock()
		return
	}
	rs.mu.Unlock()

	timedOut := false
	t := time.AfterFunc(rs.s.cfg.ReplicaAckTimeout, func() {
		rs.mu.Lock()
		timedOut = true
		rs.cond.Broadcast()
		rs.mu.Unlock()
	})
	defer t.Stop()

	rs.mu.Lock()
	for {
		if !rs.waitingOnLocked(seq) {
			rs.mu.Unlock()
			return
		}
		if timedOut {
			for _, conn := range rs.replicas {
				if conn.inSync && conn.acked < seq {
					rs.dropLocked(conn)
				}
			}
			rs.mu.Unlock()
			return
		}
		rs.cond.Wait()
	}
}

// waitingOnLocked reports whether any in-sync replica has not acked seq.
func (rs *replState) waitingOnLocked(seq uint32) bool {
	if rs.closed {
		return false
	}
	for _, conn := range rs.replicas {
		if conn.inSync && !conn.gone && conn.acked < seq {
			return true
		}
	}
	return false
}

// dropLocked removes a replica from membership; its sender (if any)
// wakes, sees gone, and exits.
func (rs *replState) dropLocked(conn *replicaConn) {
	conn.gone = true
	conn.inSync = false
	if rs.replicas[conn.rid] == conn {
		delete(rs.replicas, conn.rid)
	}
	rs.cond.Broadcast()
}

// pruneLocked drops members whose heartbeat lease has lapsed: a replica
// that stopped heartbeating is dead (or partitioned) and must not pin
// the log or the in-sync wait.
func (rs *replState) pruneLocked() {
	cutoff := time.Now().Add(-2 * rs.s.cfg.ReplicaLease)
	for _, conn := range rs.replicas {
		if conn.lastHB.Before(cutoff) {
			rs.dropLocked(conn)
		}
	}
}

// join enrolls (or re-enrolls) a replica and starts its sender, which
// pushes it the gap when the log covers its position, or else a snapshot
// first; the replica joins the in-sync set once the sender has drained
// the backlog. Enrolling before the snapshot keeps every record past it
// in the log.
func (rs *replState) join(rid uint32, applyPid, serverPid ipc.Pid, lastApplied uint32) (seq, status uint32) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return 0, StatusNoVolume
	}
	if old := rs.replicas[rid]; old != nil {
		rs.dropLocked(old)
	}
	conn := &replicaConn{
		rid:    rid,
		apply:  applyPid,
		server: serverPid,
		lastHB: time.Now(),
	}
	rs.replicas[rid] = conn
	snapshot := lastApplied+1 < rs.logStart || lastApplied > rs.seq
	if !snapshot {
		conn.acked = lastApplied
		conn.inSync = lastApplied == rs.seq
	}
	rs.senders.Add(1)
	go rs.sender(conn, snapshot)
	return rs.seq, StatusOK
}

// sender streams the log to one replica, in order, one batch exchange
// in flight: each batch is every record from the replica's next
// sequence on that fits batchLocked's cap, so a catch-up drains a
// backlog many records per exchange, and an in-sync replica is pushed
// whatever accumulated while the last batch was out. A sender that
// drains the backlog flips its replica in-sync (commit then waits on
// it); any push failure or non-OK reply drops the replica — it rejoins.
// A snapshot joiner is pushed the snapshot first and the log from its
// sequence on.
func (rs *replState) sender(conn *replicaConn, snapshot bool) {
	defer rs.senders.Done()
	p, err := rs.s.node.Attach(fmt.Sprintf("repl-send-v%d-r%d", rs.vol, conn.rid))
	if err != nil {
		rs.mu.Lock()
		rs.dropLocked(conn)
		rs.mu.Unlock()
		return
	}
	defer rs.s.node.Detach(p)
	if snapshot {
		seq, ok := rs.snapshot(p, conn)
		rs.mu.Lock()
		if !ok {
			rs.dropLocked(conn)
			rs.mu.Unlock()
			return
		}
		conn.acked = seq
		rs.mu.Unlock()
	}
	for {
		rs.mu.Lock()
		for !rs.closed && !conn.gone && conn.acked == rs.seq {
			if !conn.inSync {
				// Backlog drained: join the in-sync set (and the read set).
				conn.inSync = true
				rs.cond.Broadcast()
			}
			rs.cond.Wait()
		}
		if rs.closed || conn.gone {
			rs.mu.Unlock()
			return
		}
		first := conn.acked + 1
		recs, ok := rs.batchLocked(first)
		if !ok {
			// Trimmed out from under a lagging conn; force a rejoin.
			rs.dropLocked(conn)
			rs.mu.Unlock()
			return
		}
		rs.mu.Unlock()

		ok = rs.push(p, conn.apply, recs)
		rs.mu.Lock()
		if !ok {
			rs.dropLocked(conn)
			rs.mu.Unlock()
			return
		}
		if last := first + uint32(len(recs)) - 1; conn.acked < last {
			conn.acked = last
			rs.cond.Broadcast()
		}
		rs.mu.Unlock()
	}
}

// batchLocked returns the logged records from sequence from on, as many
// as fit in maxTrain encoded bytes but never none: a lone record may
// pass the cap by its own header (a whole-train write). The records are
// the log's own slices, which are never rewritten once logged, so the
// caller may send them after unlocking. ok is false when the log does
// not hold from.
func (rs *replState) batchLocked(from uint32) (recs [][]byte, ok bool) {
	if from < rs.logStart || from > rs.seq {
		return nil, false
	}
	i := int(from - rs.logStart)
	j, total := i+1, len(rs.log[i])
	for j < len(rs.log) && total+len(rs.log[j]) <= maxTrain {
		total += len(rs.log[j])
		j++
	}
	return rs.log[i:j], true
}

// snapshot pushes the volume's contents to a joiner the log does not
// cover, as ordinary records in OpReplicate batches: a begin record,
// each file as a create (its size) and its bytes as writes, and an end
// record, every one stamped with the snapshot sequence it returns. That
// sequence is read first and the cache drained second, so every record
// up to it is on the store the walk reads; every later one stays in the
// log (the joiner is a member) and replays on top, writes being
// absolute. A write record carries at most maxTrain-repRecordHeader
// bytes, so every batch fits one pooled maxTrain buffer. ok reports
// whether the joiner applied the whole snapshot.
func (rs *replState) snapshot(p *ipc.Proc, conn *replicaConn) (seq uint32, ok bool) {
	rs.mu.Lock()
	seq = rs.seq
	rs.mu.Unlock()
	v := rs.s.volumes[rs.vol]
	v.cache.drain(0)
	ids, err := v.store.Files()
	if err != nil {
		return seq, false
	}
	recs := [][]byte{encodeRepRecord(repKindSnapBegin, 0, 0, seq, 0)}
	size := len(recs[0])
	flush := func() bool {
		rs.mu.Lock()
		live := !rs.closed && !conn.gone
		rs.mu.Unlock()
		sent := live && rs.push(p, conn.apply, recs)
		recs, size = recs[:0], 0
		return sent
	}
	emit := func(rec []byte) bool {
		if size+len(rec) > maxTrain && !flush() {
			return false
		}
		recs = append(recs, rec)
		size += len(rec)
		return true
	}
	buf := make([]byte, maxTrain-repRecordHeader)
	for _, id := range ids {
		n, err := v.store.Size(id)
		if err == ErrNoFile {
			continue
		}
		if err != nil || !emit(encodeRepRecord(repKindCreate, id, uint32(n), seq, 0)) {
			return seq, false
		}
		for off := int64(0); off < n; {
			want := min(n-off, int64(len(buf)))
			got, err := v.store.ReadAt(id, buf[:want], off)
			if err != nil && err != ErrNoFile {
				return seq, false
			}
			if got > 0 && !emit(encodeRepRecord(repKindWrite, id, uint32(off), seq, 0, buf[:got])) {
				return seq, false
			}
			if int64(got) < want {
				break // the file shrank under the walk; a later record replays it
			}
			off += want
		}
	}
	return seq, emit(encodeRepRecord(repKindSnapEnd, 0, 0, seq, 0)) && flush()
}

// push sends recs to a replica's apply process as one OpReplicate batch
// and reports whether the replica applied every record. A lone record
// is sent straight from the log; more are gathered into one pooled
// buffer. A traced record's id rides the push message's trace word (the
// fan-out half of request tracing), and each traced record logs a
// repl.push span on the primary covering the batch exchange.
func (rs *replState) push(p *ipc.Proc, apply ipc.Pid, recs [][]byte) bool {
	batch := recs[0]
	if len(recs) > 1 {
		b := bufpool.Get(maxTrain)
		defer b.Release()
		n := 0
		for _, rec := range recs {
			n += copy(b.Data[n:], rec)
		}
		batch = b.Data[:n]
	}
	m := buildRequest(0, OpReplicate, 0, 0, uint32(len(batch)))
	var t0 time.Time
	for _, rec := range recs {
		if r, _, _ := decodeRepRecord(rec); r.trace != 0 {
			m.SetTrace(r.trace)
			t0 = time.Now()
			break
		}
	}
	err := p.Send(&m, apply, &ipc.Segment{Data: batch, Access: ipc.SegRead})
	ok := err == nil
	if ok {
		status, _ := parseReply(&m)
		ok = status == StatusOK
	}
	if !t0.IsZero() {
		dur := time.Since(t0)
		for _, rec := range recs {
			if r, _, _ := decodeRepRecord(rec); r.trace != 0 {
				rs.s.metrics.Trace().Record(r.trace, "repl.push", uint64(r.seq), dur)
			}
		}
	}
	return ok
}

// heartbeat renews a member's lease and answers with the promotion
// candidate (lowest in-sync replica id). Unknown members are told to
// rejoin; stale members are pruned while we are here. It never moves
// acked: a replica's position is proven only by push acks.
func (rs *replState) heartbeat(rid uint32) (seq, candidate, flags uint32) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.pruneLocked()
	conn := rs.replicas[rid]
	if conn == nil {
		return rs.seq, rs.candidateLocked(), repHBUnknown
	}
	conn.lastHB = time.Now()
	if conn.inSync {
		flags |= repHBInSync
	}
	return rs.seq, rs.candidateLocked(), flags
}

// candidateLocked is the deterministic promotion candidate: the lowest
// in-sync replica id (0 when there is none).
func (rs *replState) candidateLocked() uint32 {
	var c uint32
	for rid, conn := range rs.replicas {
		if conn.inSync && (c == 0 || rid < c) {
			c = rid
		}
	}
	return c
}

// insyncCount reports how many replicas the commit path currently waits
// on (the in-sync set, excluding the primary itself). Feeds the
// rfs.vol<id>.repl_insync gauge.
func (rs *replState) insyncCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, conn := range rs.replicas {
		if conn.inSync {
			n++
		}
	}
	return n
}

// lag reports how many sequenced records the furthest-behind member has
// not yet proven applied (0 with no members). Feeds the
// rfs.vol<id>.repl_lag gauge — the live replication-lag figure vstat
// aggregates cluster-wide.
func (rs *replState) lag() uint32 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var worst uint32
	for _, conn := range rs.replicas {
		if lag := rs.seq - conn.acked; lag > worst {
			worst = lag
		}
	}
	return worst
}

// readSet is the live read fan-out set: the primary's own server pid
// followed by every in-sync replica's server pid.
func (rs *replState) readSet(self ipc.Pid) []ipc.Pid {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.pruneLocked()
	pids := []ipc.Pid{self}
	for _, conn := range rs.replicas {
		if conn.inSync {
			pids = append(pids, conn.server)
		}
	}
	return pids
}

// close stops the senders and releases any committing writers.
func (rs *replState) close() {
	rs.mu.Lock()
	rs.closed = true
	for _, conn := range rs.replicas {
		conn.gone = true
	}
	rs.replicas = make(map[uint32]*replicaConn)
	rs.cond.Broadcast()
	rs.mu.Unlock()
	rs.senders.Wait()
}

// replicateAppend sequences one mutation of a primary volume and returns
// its sequence without waiting for acks; replicateCommit is the wait. The
// write path appends after the mutation is applied locally (a large write
// once per train) and commits before the registry fan-out/reply. On
// replicas and unreplicated configurations it returns 0.
// Ordering caveat: the record is appended after the local mutation
// lands, and the two are not atomic — two clients racing writes to the
// same bytes may be logged in the other order than the cache applied
// them, exactly as their unsynchronized writes already race on the
// primary itself. Writes serialized by an ack (the read-your-writes
// cases the failover tests check) are logged in ack order.
func (s *Server) replicateAppend(v *volume, kind byte, file, off, trace uint32, parts ...[]byte) uint32 {
	if v.role.Load() != rolePrimary || v.repl == nil {
		return 0
	}
	return v.repl.append(kind, file, off, trace, parts...)
}

// replicateCommit waits for the in-sync replicas to ack record seq (and
// with it every earlier one); 0 waits for nothing.
func (s *Server) replicateCommit(v *volume, seq uint32) {
	if v.role.Load() == rolePrimary && v.repl != nil {
		v.repl.commit(seq)
	}
}

// handleRepJoin serves OpRepJoin (see replState.join). The 8-byte
// segment names the replica's apply and server pids.
func (s *Server) handleRepJoin(v *volume, req *request, rid, lastApplied, segLen uint32) {
	if segLen < 8 || len(req.buf) < 8 {
		s.replyStatus(req.src, StatusBadRequest, 0)
		return
	}
	if req.inline < 8 {
		if err := s.proc.MoveFrom(req.src, uint32(req.inline), req.buf[req.inline:8]); err != nil {
			s.replyStatus(req.src, StatusBadRequest, 0)
			return
		}
	}
	applyPid := ipc.Pid(binary.BigEndian.Uint32(req.buf[0:4]))
	serverPid := ipc.Pid(binary.BigEndian.Uint32(req.buf[4:8]))
	seq, status := v.repl.join(rid, applyPid, serverPid, lastApplied)
	m := buildReply(status, seq)
	_ = s.proc.Reply(&m, req.src)
}

// handleRepHeartbeat serves OpRepHeartbeat (see replState.heartbeat).
func (s *Server) handleRepHeartbeat(v *volume, req *request, rid, _, _ uint32) {
	seq, candidate, flags := v.repl.heartbeat(rid)
	m := buildReply(StatusOK, 0)
	stampRepHeartbeat(&m, seq, candidate, flags)
	_ = s.proc.Reply(&m, req.src)
}

// handleQueryReplicas serves OpQueryReplicas: the read set as pids in
// the reply segment, primary first. An unreplicated primary answers
// with itself alone, so spread-reads clients work against any cluster.
func (s *Server) handleQueryReplicas(v *volume, req *request, _, _, grant uint32) {
	pids := []ipc.Pid{s.proc.Pid()}
	if rs := v.repl; rs != nil {
		pids = rs.readSet(s.proc.Pid())
	}
	s.replyIDs(req.src, encodeIDs(pids, grant))
}
