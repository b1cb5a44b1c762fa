// Package rfs is the real networked V file server: the Verex-style I/O
// protocol of §3.4/§6, served over the runnable IPC runtime
// (vkernel/internal/ipc) instead of the discrete-event simulation that
// internal/fsrv drives.
//
// The fast paths match the paper's diskless-workstation workload:
//
//   - A page read is one Send/Reply exchange — the client grants write
//     access to its page buffer and the server answers with
//     ReplyWithSegment, so the page travels in the reply packet.
//   - A page write is also one exchange — the data rides inline with the
//     Send packet (§3.4's read-segment prefix); any remainder beyond the
//     inline allowance is pulled with MoveFrom.
//   - Reads larger than a page (program loading, §6.3) are streamed as
//     one packet train and one acknowledgement per 64 KB (maxTrain), the
//     last train by ReplyWithSegment with the reply right behind it;
//     large writes are taken with MoveFrom a train at a time, the first
//     out of the push the client's kernel sends behind the Send, and
//     a page write is served as the one-block large write it is.
//
// The server owns a byte-addressed block store (in-memory or file-backed)
// behind an LRU block cache. Its workers all Receive on the one server
// process, so the kernel's FCFS receive queue is its only request queue
// and independent clients proceed in parallel, one per worker (the
// node's sharded locking keeps their exchanges from serializing).
package rfs

import (
	"encoding/binary"
	"errors"

	"vkernel/internal/ipc"
	"vkernel/internal/vproto"
)

// LogicalFileServer is the well-known logical id the server registers
// under (the same id internal/core uses for the simulated file server).
// In a sharded cluster every server registers it, so a broadcast lookup
// enumerates the cluster (DiscoverAll) while per-volume routing goes
// through LogicalVolumeBase.
const LogicalFileServer uint32 = 1

// DefaultVolume is the volume id legacy (pre-sharding) clients address:
// requests whose reserved volume word is zero land here, so a server
// started with Start is wire-compatible with old clients.
const DefaultVolume uint32 = 0

// LogicalVolumeBase maps volume ids into the logical name space: the
// server hosting volume v registers LogicalVolumeBase+v with network-wide
// scope. This is how servers advertise the volume set they own — the
// name service doubles as the cluster's routing table, and rfs.Router
// resolves a volume with one broadcast lookup of its logical name.
const LogicalVolumeBase uint32 = 0x1000

// Request opcodes (message word 1).
const (
	OpReadBlock  uint32 = 1 // page-level read: data in the reply packet
	OpWriteBlock uint32 = 2 // page-level write: data inline with the Send
	OpReadLarge  uint32 = 3 // multi-block read streamed via MoveTo
	OpWriteLarge uint32 = 4 // multi-block write taken via MoveFrom (its first 64 KB pushed)
	OpQueryFile  uint32 = 5 // file size lookup
	OpCreateFile uint32 = 6 // create (or truncate) a file
	OpSync       uint32 = 7 // drain write-behind blocks to the store (word 2: file id, 0 = whole cache)

	// Client-cache consistency protocol (§6.2 experiment). A caching
	// client registers per file, naming the callback process its node
	// runs for invalidations; on any write to the file the server Sends
	// OpInvalidate to every other registered client's callback process
	// BEFORE acknowledging the write, so a post-ack read on any client
	// never observes the cache's pre-write bytes (nor caches a replica's:
	// see stampVersion). Registrations carry a bounded lease and every
	// file a version counter, so a client whose callbacks are lost
	// (dead callback process, dropped registration) serves stale bytes
	// for at most one lease: a cache hit past the lease forces a
	// re-registration, and a version mismatch on the renewal purges the
	// file's cached blocks.
	OpRegisterCache uint32 = 8  // word 2: file id, word 3: callback pid → reply word 2: version, word 3: lease ms
	OpReleaseCache  uint32 = 9  // word 2: file id, word 3: callback pid
	OpInvalidate    uint32 = 10 // server→client callback: word 2: file, word 3: first block, word 4: count, word 5: version, word 6: volume, word 7: replication sequence

	// OpQueryVolumes asks a server for the volume set it owns (word 4
	// bounds the reply bytes; the ids arrive as big-endian uint32s in the
	// granted segment, reply word 2 = count). Volume-agnostic: any server
	// answers regardless of the request's volume word. DiscoverAll plus
	// one OpQueryVolumes per responder yields the cluster map.
	OpQueryVolumes uint32 = 11

	// Volume replication protocol. A volume's primary streams every
	// acked mutation to its read replicas as a sequenced record stream:
	// the per-volume sequence counter extends the registry's per-file
	// version counters to a total order over the volume's writes.
	// Control ops (join/heartbeat/query) address the primary server
	// process and carry the volume in word 5 as usual; the one data op,
	// OpReplicate, addresses the replica's per-volume apply process — the
	// volume is implied by the destination pid. Opcodes 13, 14 and 18 are
	// retired (replica-driven pull catch-up, a snapshot file catalog and a
	// per-record create push); the file server answers them like any
	// unknown word.

	// OpRepJoin enrolls a replica with the primary: word 2 = replica id,
	// word 3 = the replica's last applied sequence, word 4 = segment
	// length (8: the replica's apply pid and server pid as big-endian
	// uint32s). Reply word 2 = the primary's current sequence. Every
	// accepted joiner is pushed what it lacks on OpReplicate: the gap,
	// when the log covers it, or else a snapshot followed by the log.
	OpRepJoin uint32 = 12
	// OpRepHeartbeat is the replica's lease renewal on the primary:
	// word 2 = replica id, word 3 = last applied sequence. The reply
	// (stampRepHeartbeat) carries the primary's sequence, the current
	// promotion candidate (lowest in-sync replica id) and whether the
	// primary still counts the sender as in-sync.
	OpRepHeartbeat uint32 = 15
	// OpQueryReplicas asks the volume's primary for the live read set:
	// the reply segment holds server pids as big-endian uint32s (primary
	// first, then in-sync replicas), reply word 2 = count. The Router
	// spreads reads over this set.
	OpQueryReplicas uint32 = 16

	// OpReplicate pushes a batch of consecutive records to a replica's
	// apply process: word 4 = batch bytes, the records (encodeRepRecord)
	// back to back in the granted segment; the batch's head rides inline
	// with the Send, any remainder pulled with MoveFrom (the page-write
	// pattern). The replica applies them in order and stops at the first
	// that fails; the reply carries that status and the replica's last
	// applied sequence in word 2. A snapshot travels the same way, as
	// records between a begin and an end record.
	OpReplicate uint32 = 17

	// OpQueryStats scrapes the server's metrics registry over V IPC:
	// word 4 bounds the reply bytes; the serialized snapshot
	// (obs.Registry.Serialize — counters, gauges, histogram summaries and
	// recent trace events in the obs text wire format) is replied into
	// the granted segment with ReplyWithSegment. Volume-agnostic like OpQueryVolumes: any
	// server answers for its whole registry, so DiscoverAll plus one
	// OpQueryStats per responder is a full-cluster scrape (cmd/vstat).
	// The reply carries the streamed byte count in word 2 and the full
	// snapshot size in word 3, so a scraper can detect a grant too small
	// for the whole snapshot (the stream is cut at a line boundary).
	OpQueryStats uint32 = 19
)

// InvalidateAll as an OpInvalidate block count names the whole file
// (create/truncate, or a registration being revoked).
const InvalidateAll = ^uint32(0)

// Reply status codes (reply word 1).
const (
	StatusOK uint32 = iota
	StatusBadRequest
	StatusNoFile
	StatusIOError
	// StatusNoVolume reports that the server does not host the request's
	// volume — the signal that makes a routed client drop its cached
	// route and re-discover (the volume moved, or the route was stale).
	// Replicas answer every mutating op with it (writes pin to the
	// primary), and a demoted ex-primary answers replication control ops
	// with it, so the existing reroute machinery covers failover too.
	StatusNoVolume
	// Status 5 is retired and never sent; its slot keeps StatusRepGap's
	// value on the wire.
	_
	// StatusRepGap is a replica's refusal of an out-of-order push: the
	// record's sequence is not the next one it expects. The primary
	// drops the connection; the replica rejoins and is pushed the gap.
	StatusRepGap
)

// Errors returned by the client stubs.
var (
	ErrBadStatus = errors.New("rfs: server returned error status")
	ErrNoServer  = errors.New("rfs: no file server registered")
	// ErrNoVolume means no reachable server hosts the volume (or, for an
	// unrouted client, the bound server does not). Routed clients surface
	// it only after their bounded re-discovery attempts are exhausted —
	// it is retryable once the volume comes back.
	ErrNoVolume = errors.New("rfs: no server hosts the volume")
)

// Message layout. Requests use:
//
//	word 1: opcode
//	word 2: file id
//	word 3: block number (page ops), byte offset (large ops) or size
//	        (create)
//	word 4: byte count
//	word 5: volume id (previously reserved and always zero, so the
//	        sharded protocol stays wire-compatible: legacy requests
//	        address DefaultVolume)
//
// The data buffer itself is granted through the message's segment
// descriptor. Replies use word 1 = status, word 2 = count (bytes
// read/written, or the file size for query). Write replies additionally
// carry the file's post-write cache version in word 3 with word 4 = 1
// (see proto: OpRegisterCache) when the file is version-tracked, so a
// caching writer can keep its own version current without a callback.
// The OpInvalidate callback (a server→client request) already uses word
// 5 for the version, so it carries its volume in word 6 and the write's
// replication sequence in word 7 — callbacks grant no segment, leaving
// the descriptor words free. A replica's page-read reply carries its
// applied sequence in word 3 with word 4 = 1 (see stampVersion).

// buildRequest assembles a request message addressed to a volume.
func buildRequest(vol, op, file, blockOrOff, count uint32) ipc.Message {
	var m ipc.Message
	m.SetWord(1, op)
	m.SetWord(2, file)
	m.SetWord(3, blockOrOff)
	m.SetWord(4, count)
	m.SetWord(5, vol)
	return m
}

// parseRequest decodes a request message.
func parseRequest(m *ipc.Message) (op, file, blockOrOff, count uint32) {
	return m.Word(1), m.Word(2), m.Word(3), m.Word(4)
}

// reqOp returns the request's opcode (word 1).
func reqOp(m *ipc.Message) uint32 { return m.Word(1) }

// reqVolume returns the request's volume id (reserved word 5).
func reqVolume(m *ipc.Message) uint32 { return m.Word(5) }

// buildReply assembles a reply message.
func buildReply(status, count uint32) ipc.Message {
	var m ipc.Message
	m.SetWord(1, status)
	m.SetWord(2, count)
	return m
}

// parseReply decodes a reply message.
func parseReply(m *ipc.Message) (status, count uint32) {
	return m.Word(1), m.Word(2)
}

// encodeIDs lays out an id list (OpQueryVolumes' volume ids,
// OpQueryReplicas' server pids) for a reply segment: big-endian uint32s,
// capped at the client's grant and at one reply packet.
func encodeIDs[T ~uint32](ids []T, grant uint32) []byte {
	n := min(len(ids), int(grant/4), vproto.MaxData/4)
	seg := make([]byte, 4*n)
	for i, id := range ids[:n] {
		binary.BigEndian.PutUint32(seg[4*i:], uint32(id))
	}
	return seg
}

// decodeIDs reads the count ids encodeIDs laid out in seg; ok is false
// when count overruns the segment.
func decodeIDs[T ~uint32](seg []byte, count uint32) (ids []T, ok bool) {
	if count > uint32(len(seg)/4) {
		return nil, false
	}
	ids = make([]T, count)
	for i := range ids {
		ids[i] = T(binary.BigEndian.Uint32(seg[4*i:]))
	}
	return ids, true
}

// buildInvalidate assembles an OpInvalidate callback. Callbacks reuse
// the request layout but word 5 carries the file's post-write version,
// so the volume rides in word 6 and the write's replication sequence
// (0 when unreplicated) in word 7.
func buildInvalidate(vol, file, first, count, version, seq uint32) ipc.Message {
	m := buildRequest(0, OpInvalidate, file, first, count)
	m.SetWord(5, version)
	m.SetWord(6, vol)
	m.SetWord(7, seq)
	return m
}

// parseInvalidate decodes the callback-specific words of an
// OpInvalidate message (the op/file/block/count words go through
// parseRequest as usual).
func parseInvalidate(m *ipc.Message) (version, vol, seq uint32) {
	return m.Word(5), m.Word(6), m.Word(7)
}

// stampRegisterLease records the registration lease (milliseconds) in
// an OpRegisterCache reply; word 2 already carries the version.
func stampRegisterLease(m *ipc.Message, leaseMs uint32) { m.SetWord(3, leaseMs) }

// registerLease reads the lease (milliseconds) from an OpRegisterCache
// reply.
func registerLease(m *ipc.Message) uint32 { return m.Word(3) }

// stampVersion sets a reply's version: word 3, flagged by word 4 = 1. A
// write reply carries the file's post-write cache version (if tracked),
// a replica's page-read reply the sequence it applied before the read.
func stampVersion(m *ipc.Message, version uint32) {
	m.SetWord(3, version)
	m.SetWord(4, 1)
}

// replyVersion reads the word stampVersion set; ok reports whether the
// reply carried one.
func replyVersion(m *ipc.Message) (version uint32, ok bool) {
	if m.Word(4) == 0 {
		return 0, false
	}
	return m.Word(3), true
}

// stampStatsReply finishes an OpQueryStats reply: word 2 = streamed
// bytes, word 3 = the full snapshot size (larger than word 2 when the
// grant could not hold the whole snapshot).
func stampStatsReply(m *ipc.Message, streamed, total uint32) {
	m.SetWord(2, streamed)
	m.SetWord(3, total)
}

// statsReply reads an OpQueryStats reply.
func statsReply(m *ipc.Message) (streamed, total uint32) {
	return m.Word(2), m.Word(3)
}

// OpRepHeartbeat reply flags (word 4).
const (
	// repHBInSync: the primary counts the sender among the in-sync read
	// set (it may serve reads).
	repHBInSync uint32 = 1 << iota
	// repHBUnknown: the primary has no connection for the sender's
	// replica id (dropped, or the primary restarted) — rejoin.
	repHBUnknown
)

// stampRepHeartbeat finishes an OpRepHeartbeat reply: word 2 = the
// primary's sequence, word 3 = the promotion candidate replica id
// (lowest in-sync id; 0 when there is none), word 4 = flags.
func stampRepHeartbeat(m *ipc.Message, seq, candidate, flags uint32) {
	m.SetWord(2, seq)
	m.SetWord(3, candidate)
	m.SetWord(4, flags)
}

// repHeartbeatReply reads an OpRepHeartbeat reply.
func repHeartbeatReply(m *ipc.Message) (seq, candidate, flags uint32) {
	return m.Word(2), m.Word(3), m.Word(4)
}

// Replication record kinds (the log's and the push batch's encoding;
// see encodeRepRecord). A snapshot is a begin record, then a create and
// writes per file, then an end record, every one stamped with the
// snapshot's sequence.
const (
	repKindWrite     = 1 // off = byte offset, data follows
	repKindCreate    = 2 // off = file size, no data
	repKindSnapBegin = 3 // no file, no data
	repKindSnapEnd   = 4 // no file, no data
)

// repRecordHeader is the encoded record header size: kind (1 byte) plus
// file, off, len, seq and trace as big-endian uint32s. The trace word
// carries the originating client's 24-bit trace id (0 = untraced)
// through the log and every batch, so a traced write's span timeline
// extends onto each replica that applies it, however many records its
// batch held.
const repRecordHeader = 1 + 5*4
