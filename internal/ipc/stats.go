package ipc

import "vkernel/internal/obs"

// nodeCounters holds the node's protocol statistics as named counters in
// the node's obs registry — independent atomics, so hot paths on
// different subsystems never contend on a stats lock, and one uniform
// namespace (`ipc.*`) that OpQueryStats/vstat scrape alongside every
// other subsystem.
type nodeCounters struct {
	remoteSends       *obs.Counter
	remoteReplies     *obs.Counter
	retransmits       *obs.Counter
	dupsFiltered      *obs.Counter
	replyPendingsSent *obs.Counter
	replyPendingsSeen *obs.Counter
	nacksSent         *obs.Counter
	overloadSheds     *obs.Counter // Sends refused by receive-queue backpressure; each remote one also counts a Nack
	badPackets        *obs.Counter
	moveOps           *obs.Counter
	moveBytes         *obs.Counter
	moveResumes       *obs.Counter // trains resumed from a gap (non-final MoveToAck, re-issued MoveFromReq)
	moveOOODrops      *obs.Counter // data packets discarded for arriving at the wrong offset
	repliesHeld       *obs.Counter // replies that arrived before the stream they cover had landed
	pushHits          *obs.Counter // MoveFroms served wholly from the push behind their Send
	pushDrops         *obs.Counter // pushed packets discarded: no live descriptor of their Send, or past a gap
	rxRuns            *obs.Counter // runs of two or more bulk data packets taken under one lookup (see walk.more)
}

// newNodeCounters registers the node counters under their wire-visible
// names, each exactly once: the registry is the only view of them.
func newNodeCounters(r *obs.Registry) nodeCounters {
	return nodeCounters{
		remoteSends:       r.Counter("ipc.remote_sends"),
		remoteReplies:     r.Counter("ipc.remote_replies"),
		retransmits:       r.Counter("ipc.retransmits"),
		dupsFiltered:      r.Counter("ipc.dups_filtered"),
		replyPendingsSent: r.Counter("ipc.reply_pendings_sent"),
		replyPendingsSeen: r.Counter("ipc.reply_pendings_seen"),
		nacksSent:         r.Counter("ipc.nacks_sent"),
		overloadSheds:     r.Counter("ipc.overload_sheds"),
		badPackets:        r.Counter("ipc.bad_packets"),
		moveOps:           r.Counter("ipc.move_ops"),
		moveBytes:         r.Counter("ipc.move_bytes"),
		moveResumes:       r.Counter("ipc.move_resumes"),
		moveOOODrops:      r.Counter("ipc.move_ooo_drops"),
		repliesHeld:       r.Counter("ipc.replies_held"),
		pushHits:          r.Counter("ipc.push_hits"),
		pushDrops:         r.Counter("ipc.push_drops"),
		rxRuns:            r.Counter("ipc.rx_runs"),
	}
}
