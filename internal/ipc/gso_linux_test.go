package ipc

import (
	"encoding/binary"
	"syscall"
	"testing"
	"unsafe"
)

// cmsg encodes one control message with the given level, type and data.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = level, typ
	h.SetLen(syscall.CmsgLen(len(data)))
	copy(b[syscall.CmsgLen(0):], data)
	return b
}

func groMsg(seg int32) []byte {
	return cmsg(syscall.IPPROTO_UDP, udpGRO, binary.NativeEndian.AppendUint32(nil, uint32(seg)))
}

// parsedSegSize is groSegSize by way of syscall.ParseSocketControlMessage.
func parsedSegSize(oob []byte) int {
	msgs, _ := syscall.ParseSocketControlMessage(oob)
	for _, m := range msgs {
		if m.Header.Level == syscall.IPPROTO_UDP && m.Header.Type == udpGRO && len(m.Data) >= 4 {
			return int(int32(binary.NativeEndian.Uint32(m.Data)))
		}
	}
	return 0
}

// TestGroSegSizeMatchesParse: the in-place walk reads what the standard
// parser does — the first UDP_GRO message, wherever it sits, and 0 for a
// malformed header before it. (After it, the standard parser gives up on
// the whole buffer; the walk has stopped.)
func TestGroSegSizeMatchesParse(t *testing.T) {
	other := cmsg(syscall.SOL_SOCKET, syscall.SCM_RIGHTS, []byte{1, 2, 3, 4, 5})
	bad := groMsg(7)
	binary.NativeEndian.PutUint32(bad, 1) // a header length below the header
	cat := func(parts ...[]byte) (b []byte) {
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	for name, oob := range map[string][]byte{
		"none":          nil,
		"gro":           groMsg(1088),
		"after other":   cat(other, groMsg(544)),
		"first of two":  cat(groMsg(100), groMsg(200)),
		"zero first":    cat(groMsg(0), groMsg(200)),
		"negative":      groMsg(-3),
		"short data":    cmsg(syscall.IPPROTO_UDP, udpGRO, []byte{1, 2}),
		"malformed":     cat(bad, groMsg(1088)),
		"truncated":     groMsg(1088)[:syscall.CmsgLen(2)],
		"header only":   groMsg(1088)[:syscall.CmsgLen(0)],
		"trailing junk": cat(groMsg(1088), []byte{9, 9, 9}),
	} {
		if got, want := groSegSize(oob), parsedSegSize(oob); got != want {
			t.Errorf("%s: groSegSize = %d, the standard parser reads %d", name, got, want)
		}
	}
	if got := groSegSize(cat(groMsg(1088), bad)); got != 1088 {
		t.Errorf("a malformed header after the UDP_GRO message: groSegSize = %d, want 1088", got)
	}
}

// TestGroSegSizeAllocs pins the coalesced read's control-message parse
// at 0 allocations.
func TestGroSegSizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	oob := append(cmsg(syscall.SOL_SOCKET, syscall.SCM_RIGHTS, []byte{1, 2, 3, 4}), groMsg(1088)...)
	if got := testing.AllocsPerRun(100, func() {
		if groSegSize(oob) != 1088 {
			t.Fatal("wrong segment size")
		}
	}); got != 0 {
		t.Fatalf("%v allocs per parse, want 0", got)
	}
}
