package rfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"vkernel/internal/ipc"
)

// This file is the primary side of volume replication: the sequenced
// record log, the per-replica push senders, the synchronous commit the
// write path waits on, and the OpRep* control-op handlers.
//
// Ordering and durability contract: every mutation a primary
// acknowledges is (1) assigned the next per-volume sequence under the
// replication lock, (2) pushed — in sequence order, one exchange in
// flight per replica — to every in-sync replica, and (3) acknowledged
// to the client only after all in-sync replicas acked it (or were
// dropped from the in-sync set at ReplicaAckTimeout). A promoted
// replica therefore holds every write any client ever saw acknowledged,
// which is the no-acked-write-lost half of failover; the drop-on-
// timeout half keeps a dead replica from wedging the write path.

// repRecord is one logged mutation. data is an owned copy (nil for
// creates) and immutable once logged, so senders and pulls may stream
// it outside the lock. trace is the originating client's 24-bit trace
// id (0 = untraced): it rides the push message's trace word and the
// pull stream's record header, so a traced write's span timeline
// continues on every replica that applies it.
type repRecord struct {
	kind  byte
	file  uint32
	off   uint32 // byte offset (write) or size (create)
	seq   uint32
	trace uint32
	data  []byte
}

// encodedLen is the record's wire size in a pull stream.
func (r *repRecord) encodedLen() int { return repRecordHeader + len(r.data) }

// encodeRepRecord writes r at dst and returns the bytes written.
func encodeRepRecord(dst []byte, r *repRecord) int {
	dst[0] = r.kind
	binary.BigEndian.PutUint32(dst[1:], r.file)
	binary.BigEndian.PutUint32(dst[5:], r.off)
	binary.BigEndian.PutUint32(dst[9:], uint32(len(r.data)))
	binary.BigEndian.PutUint32(dst[13:], r.seq)
	binary.BigEndian.PutUint32(dst[17:], r.trace)
	copy(dst[repRecordHeader:], r.data)
	return r.encodedLen()
}

// decodeRepRecord reads one record from src; the returned record's data
// aliases src. ok is false when src is truncated.
func decodeRepRecord(src []byte) (r repRecord, n int, ok bool) {
	if len(src) < repRecordHeader {
		return r, 0, false
	}
	r.kind = src[0]
	r.file = binary.BigEndian.Uint32(src[1:])
	r.off = binary.BigEndian.Uint32(src[5:])
	dlen := int(binary.BigEndian.Uint32(src[9:]))
	r.seq = binary.BigEndian.Uint32(src[13:])
	r.trace = binary.BigEndian.Uint32(src[17:])
	if len(src) < repRecordHeader+dlen {
		return r, 0, false
	}
	r.data = src[repRecordHeader : repRecordHeader+dlen]
	return r, repRecordHeader + dlen, true
}

// replicaConn is the primary's state for one enrolled replica.
type replicaConn struct {
	rid    uint32
	apply  ipc.Pid // the replica's per-volume apply process
	server ipc.Pid // the replica's server process (read-set member)
	// acked is the highest sequence the replica has proven applied
	// (push acks; pull requests prove everything before them).
	acked uint32
	// push: a sender goroutine streams records; inSync then means the
	// commit path waits for this replica. A pull-mode conn (push false)
	// is membership only — it keeps the log retained while the replica
	// drives its own catch-up.
	push   bool
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
	// seq is the last assigned sequence; the log covers
	// [logStart, seq] (empty when logStart == seq+1).
	seq      uint32
	logStart uint32
	log      []repRecord
	logBytes int
	replicas map[uint32]*replicaConn
	closed   bool

	senders sync.WaitGroup
}

// repPushSlack is how far behind a joining replica may be and still be
// accepted straight into push mode (the sender drains the small gap);
// farther back it pulls first, so a long catch-up never holds writes.
const repPushSlack = 256

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
// members it stays empty and a later joiner resyncs from a snapshot).
// parts are gathered into one owned copy.
func (rs *replState) append(kind byte, file, off, trace uint32, parts ...[]byte) uint32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	rs.mu.Lock()
	rs.seq++
	seq := rs.seq
	if len(rs.replicas) == 0 {
		rs.logStart = seq + 1
	} else {
		var data []byte
		if total > 0 {
			data = make([]byte, 0, total)
			for _, p := range parts {
				data = append(data, p...)
			}
		}
		rs.log = append(rs.log, repRecord{kind: kind, file: file, off: off, seq: seq, trace: trace, data: data})
		rs.logBytes += total
		rs.trimLocked()
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
	return seq
}

// trimLocked bounds the log by record count and bytes. Trimming past a
// lagging member's position is allowed — its next pull draws
// StatusRepSnapshot and it resyncs.
func (rs *replState) trimLocked() {
	max := rs.s.cfg.ReplicaLogMax
	maxBytes := rs.s.cfg.ReplicaLogMaxBytes
	for len(rs.log) > max || rs.logBytes > maxBytes {
		rs.logBytes -= len(rs.log[0].data)
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
				if conn.push && conn.inSync && conn.acked < seq {
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
		if conn.push && conn.inSync && !conn.gone && conn.acked < seq {
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

// join enrolls (or re-enrolls) a replica and decides its catch-up mode:
// within repPushSlack of the head and covered by the log → push (the
// sender drains the gap); covered by the log but farther back → pull;
// past the log's tail → snapshot resync. Pull and snapshot joiners are
// members too, so the log is retained for them while they catch up.
func (rs *replState) join(rid uint32, applyPid, serverPid ipc.Pid, lastApplied uint32) (seq, flags, status uint32) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return 0, 0, StatusNoVolume
	}
	if old := rs.replicas[rid]; old != nil {
		rs.dropLocked(old)
	}
	conn := &replicaConn{
		rid:    rid,
		apply:  applyPid,
		server: serverPid,
		acked:  lastApplied,
		lastHB: time.Now(),
	}
	covered := lastApplied+1 >= rs.logStart && lastApplied <= rs.seq
	switch {
	case lastApplied == rs.seq || (covered && rs.seq-lastApplied <= repPushSlack):
		conn.push = true
		conn.inSync = lastApplied == rs.seq
		rs.replicas[rid] = conn
		rs.senders.Add(1)
		go rs.sender(conn)
		return rs.seq, repJoinPush, StatusOK
	case covered:
		rs.replicas[rid] = conn
		return rs.seq, repJoinPull, StatusOK
	default:
		rs.replicas[rid] = conn
		return rs.seq, 0, StatusRepSnapshot
	}
}

// sender streams the log to one push-mode replica, in order, one
// exchange in flight. A sender that drains the backlog flips its
// replica in-sync (commit then waits on it); any push failure or
// non-OK reply drops the replica — it rejoins through catch-up.
func (rs *replState) sender(conn *replicaConn) {
	defer rs.senders.Done()
	p, err := rs.s.node.Attach(fmt.Sprintf("repl-send-v%d-r%d", rs.vol, conn.rid))
	if err != nil {
		rs.mu.Lock()
		rs.dropLocked(conn)
		rs.mu.Unlock()
		return
	}
	defer rs.s.node.Detach(p)
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
		next := conn.acked + 1
		if next < rs.logStart {
			// Trimmed out from under a lagging push conn; force a rejoin.
			rs.dropLocked(conn)
			rs.mu.Unlock()
			return
		}
		rec := rs.log[next-rs.logStart]
		rs.mu.Unlock()

		var m ipc.Message
		var seg *ipc.Segment
		if rec.kind == repKindCreate {
			m = buildReplicate(OpRepCreate, rec.file, rec.off, 0, rec.seq)
		} else {
			m = buildReplicate(OpReplicate, rec.file, rec.off, uint32(len(rec.data)), rec.seq)
			seg = &ipc.Segment{Data: rec.data, Access: ipc.SegRead}
		}
		// A traced record's push carries the trace id on the wire (the
		// fan-out half of request tracing) and logs a span event on the
		// primary covering the push exchange.
		var t0 time.Time
		if rec.trace != 0 {
			m.SetTrace(rec.trace)
			t0 = time.Now()
		}
		err := p.Send(&m, conn.apply, seg)
		ok := err == nil
		if ok {
			status, _ := parseReply(&m)
			ok = status == StatusOK
		}
		if rec.trace != 0 {
			rs.s.metrics.Trace().Record(rec.trace, "repl.push", uint64(rec.seq), time.Since(t0))
		}
		rs.mu.Lock()
		if !ok {
			rs.dropLocked(conn)
			rs.mu.Unlock()
			return
		}
		if conn.acked < rec.seq {
			conn.acked = rec.seq
			rs.cond.Broadcast()
		}
		rs.mu.Unlock()
	}
}

// pullRecords copies out up to maxBytes of encoded records starting at
// from, for the pull handler to stream outside the lock. ok is false
// when the log no longer reaches from (snapshot needed). A pull at
// sequence from proves everything before it is applied, so the member's
// acked position advances.
func (rs *replState) pullRecords(rid, from uint32, maxBytes int) (recs []repRecord, cur uint32, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if conn := rs.replicas[rid]; conn != nil {
		conn.lastHB = time.Now()
		if from > 0 && conn.acked < from-1 {
			conn.acked = from - 1
			rs.cond.Broadcast()
		}
	}
	if from > rs.seq {
		return nil, rs.seq, true // caught up: empty batch
	}
	if from < rs.logStart {
		return nil, rs.seq, false
	}
	total := 0
	for i := int(from - rs.logStart); i < len(rs.log); i++ {
		rec := rs.log[i]
		if total+rec.encodedLen() > maxBytes && len(recs) > 0 {
			break
		}
		if total+rec.encodedLen() > maxBytes {
			break // first record alone exceeds the grant
		}
		total += rec.encodedLen()
		recs = append(recs, rec)
	}
	return recs, rs.seq, true
}

// heartbeat renews a member's lease and answers with the promotion
// candidate (lowest in-sync replica id). Unknown members are told to
// rejoin; stale members are pruned while we are here.
func (rs *replState) heartbeat(rid, lastApplied uint32) (seq, candidate, flags uint32) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.pruneLocked()
	conn := rs.replicas[rid]
	if conn == nil {
		return rs.seq, rs.candidateLocked(), repHBUnknown
	}
	conn.lastHB = time.Now()
	if conn.acked < lastApplied {
		conn.acked = lastApplied
		rs.cond.Broadcast()
	}
	if conn.push && conn.inSync {
		flags |= repHBInSync
	}
	return rs.seq, rs.candidateLocked(), flags
}

// candidateLocked is the deterministic promotion candidate: the lowest
// in-sync replica id (0 when there is none).
func (rs *replState) candidateLocked() uint32 {
	var c uint32
	for rid, conn := range rs.replicas {
		if conn.push && conn.inSync && (c == 0 || rid < c) {
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
		if conn.push && conn.inSync {
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
		if conn.push && conn.inSync {
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
	seq, flags, status := v.repl.join(rid, applyPid, serverPid, lastApplied)
	m := buildReply(status, 0)
	stampRepJoin(&m, seq, flags)
	_ = s.proc.Reply(&m, req.src)
}

// handleRepPull serves OpRepPull: encoded records MoveTo-streamed into
// the replica's grant, batch bounded by the grant size.
func (s *Server) handleRepPull(v *volume, req *request, rid, from, grant uint32) {
	recs, cur, ok := v.repl.pullRecords(rid, from, int(grant))
	if !ok {
		m := buildReply(StatusRepSnapshot, 0)
		stampRepPull(&m, 0, 0, cur)
		_ = s.proc.Reply(&m, req.src)
		return
	}
	total := 0
	for i := range recs {
		total += recs[i].encodedLen()
	}
	if total > 0 {
		buf := make([]byte, total)
		n := 0
		for i := range recs {
			n += encodeRepRecord(buf[n:], &recs[i])
		}
		if err := s.proc.MoveTo(req.src, 0, buf); err != nil {
			s.replyStatus(req.src, StatusBadRequest, 0)
			return
		}
	}
	m := buildReply(StatusOK, 0)
	stampRepPull(&m, uint32(total), uint32(len(recs)), cur)
	_ = s.proc.Reply(&m, req.src)
}

// handleRepFiles serves OpRepFiles, the snapshot enumeration: staged
// writes are flushed first so the store holds every acked byte, the
// snapshot sequence is read before the walk so any racing write is
// replayed on top of the snapshot, and the (file, size) entries are
// streamed into the replica's grant.
func (s *Server) handleRepFiles(v *volume, req *request, _, _, grant uint32) {
	if err := v.cache.flushAll(); err != nil {
		s.replyStatus(req.src, StatusIOError, 0)
		return
	}
	snapSeq := v.repl.current()
	ids, err := v.store.Files()
	if err != nil {
		s.replyStatus(req.src, StatusIOError, 0)
		return
	}
	if len(ids)*repFileEntry > int(grant) {
		// The replica's grant cannot hold the catalog; a larger grant is
		// the fix, not a silently partial snapshot.
		s.replyStatus(req.src, StatusBadRequest, 0)
		return
	}
	buf := make([]byte, len(ids)*repFileEntry)
	n := 0
	for _, id := range ids {
		size, err := v.store.Size(id)
		if err != nil {
			if err == ErrNoFile {
				continue
			}
			s.replyStatus(req.src, StatusIOError, 0)
			return
		}
		binary.BigEndian.PutUint32(buf[n:], id)
		binary.BigEndian.PutUint64(buf[n+4:], uint64(size))
		n += repFileEntry
	}
	if n > 0 {
		if err := s.proc.MoveTo(req.src, 0, buf[:n]); err != nil {
			s.replyStatus(req.src, StatusBadRequest, 0)
			return
		}
	}
	m := buildReply(StatusOK, 0)
	stampRepFiles(&m, uint32(n/repFileEntry), snapSeq)
	_ = s.proc.Reply(&m, req.src)
}

// handleRepHeartbeat serves OpRepHeartbeat (see replState.heartbeat).
func (s *Server) handleRepHeartbeat(v *volume, req *request, rid, lastApplied, _ uint32) {
	seq, candidate, flags := v.repl.heartbeat(rid, lastApplied)
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
