package main

import (
	"encoding/binary"
	"fmt"
)

// Every page the benchmark stores is self-describing: a header naming
// the file, the page, who wrote it and that writer's sequence number for
// the page, followed by filler that is a function of the header alone.
// A reader can therefore tell, from the bytes and nothing else, that it
// got the page it asked for, which write it is seeing, and that the page
// is one write's bytes and not a mix of two.

const (
	pageSize  = 512
	chunkSize = 64 * 1024  // one ReadLarge/WriteLarge
	pageMagic = 0x5642454e // "VBEN"
	headerLen = 24
	// populateWriter marks pages written by set-up, before any client ran.
	populateWriter = 0xffff
)

// fillerSeed mixes the header fields into the start of the filler
// sequence (splitmix64 finaliser, so near-identical headers diverge).
func fillerSeed(file, page, writer, seq uint32) uint64 {
	x := uint64(file)<<32 | uint64(page)
	x ^= (uint64(writer)<<32 | uint64(seq)) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stampPage fills dst (one page) with the page written by writer as its
// seq'th write of (file, page).
func stampPage(dst []byte, file, page, writer, seq uint32) {
	_ = dst[pageSize-1]
	binary.LittleEndian.PutUint32(dst[0:], pageMagic)
	binary.LittleEndian.PutUint32(dst[4:], file)
	binary.LittleEndian.PutUint32(dst[8:], page)
	binary.LittleEndian.PutUint32(dst[12:], writer)
	binary.LittleEndian.PutUint32(dst[16:], seq)
	binary.LittleEndian.PutUint32(dst[20:], 0)
	x := fillerSeed(file, page, writer, seq)
	for off := headerLen; off < pageSize; off += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}

// checkPage verifies that p is an intact page of (file, page) and
// returns who wrote it and with which sequence number.
func checkPage(p []byte, file, page uint32) (writer, seq uint32, err error) {
	if len(p) != pageSize {
		return 0, 0, fmt.Errorf("page %d/%d: %d bytes", file, page, len(p))
	}
	if m := binary.LittleEndian.Uint32(p[0:]); m != pageMagic {
		return 0, 0, fmt.Errorf("page %d/%d: bad magic %#x", file, page, m)
	}
	gotFile := binary.LittleEndian.Uint32(p[4:])
	gotPage := binary.LittleEndian.Uint32(p[8:])
	if gotFile != file || gotPage != page {
		return 0, 0, fmt.Errorf("page %d/%d: holds page %d/%d", file, page, gotFile, gotPage)
	}
	writer = binary.LittleEndian.Uint32(p[12:])
	seq = binary.LittleEndian.Uint32(p[16:])
	x := fillerSeed(file, page, writer, seq)
	for off := headerLen; off < pageSize; off += 8 {
		x += 0x9e3779b97f4a7c15
		if binary.LittleEndian.Uint64(p[off:]) != x {
			return writer, seq, fmt.Errorf("page %d/%d: torn at byte %d (header says writer %d seq %d)", file, page, off, writer, seq)
		}
	}
	return writer, seq, nil
}
