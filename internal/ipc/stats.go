package ipc

import "vkernel/internal/obs"

// nodeCounters holds the node's protocol statistics as named counters in
// the node's obs registry — independent atomics, so hot paths on
// different subsystems never contend on a stats lock, and one uniform
// namespace (`ipc.*`) that OpQueryStats/vstat scrape alongside every
// other subsystem. NodeStats remains as a thin snapshot view.
type nodeCounters struct {
	remoteSends       *obs.Counter
	remoteReplies     *obs.Counter
	retransmits       *obs.Counter
	dupsFiltered      *obs.Counter
	replyPendingsSent *obs.Counter
	replyPendingsSeen *obs.Counter
	nacksSent         *obs.Counter
	overloadSheds     *obs.Counter
	badPackets        *obs.Counter
	moveOps           *obs.Counter
	moveBytes         *obs.Counter
	moveResumes       *obs.Counter // trains resumed from a gap (non-final MoveToAck, re-issued MoveFromReq)
	moveOOODrops      *obs.Counter // data packets discarded for arriving at the wrong offset
	rttSamples        *obs.Counter
}

// newNodeCounters registers the node counters under their wire-visible
// names. Every name the batched transport also touches (retransmits,
// nacks, sheds are node-layer; batching is transport-layer `net.*`)
// lives here exactly once, so NodeStats and scrapes can never disagree
// about what a counter means.
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
		rttSamples:        r.Counter("ipc.rtt_samples"),
	}
}

// snapshot materializes the exported NodeStats view.
func (c *nodeCounters) snapshot() NodeStats {
	return NodeStats{
		RemoteSends:       int(c.remoteSends.Load()),
		RemoteReplies:     int(c.remoteReplies.Load()),
		Retransmits:       int(c.retransmits.Load()),
		DupsFiltered:      int(c.dupsFiltered.Load()),
		ReplyPendingsSent: int(c.replyPendingsSent.Load()),
		ReplyPendingsSeen: int(c.replyPendingsSeen.Load()),
		NacksSent:         int(c.nacksSent.Load()),
		OverloadSheds:     int(c.overloadSheds.Load()),
		BadPackets:        int(c.badPackets.Load()),
		MoveOps:           int(c.moveOps.Load()),
		MoveBytes:         c.moveBytes.Load(),
		RTTSamples:        int(c.rttSamples.Load()),
	}
}
