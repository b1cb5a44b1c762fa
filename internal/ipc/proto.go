// Word layout of the kernel-internal interkernel messages (name
// lookups and data-move streams). Application payloads own all eight
// message words; these constants cover only the packet kinds the
// kernel itself originates, and every raw index into them lives here
// (the wireword analyzer flags bare indices anywhere else).
package ipc

const (
	// KindGetPid / KindGetPidReply: word 1 names the logical id being
	// resolved; the reply adds the holder's pid in word 2.
	wordNameID  = 1
	wordNamePid = 2

	// KindMoveToData / KindMoveFromReq: word 1 carries the transfer's
	// base byte offset within the target segment; each fragment's own
	// offset rides in the packet header and is applied relative to it.
	// Word 2 carries the seq of the Send the mover is serving, which is
	// how the granting node finds the exchange (and only that exchange).
	wordMoveBase = 1
	wordMoveSend = 2
)
