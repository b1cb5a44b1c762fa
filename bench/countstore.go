package main

import "sync/atomic"

// countStore wraps a blockStore and counts what reaches it. The device
// cost of a workload is reported as these exact counts, never as
// simulated time: the host's timer quantum (~1.1 ms) is far coarser than
// any device delay worth simulating, so a sleeping store would measure
// the timer and not the program.
type countStore struct {
	inner      blockStore
	reads      atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

func (s *countStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	s.reads.Add(1)
	s.readBytes.Add(int64(len(p)))
	return s.inner.ReadAt(file, p, off)
}

func (s *countStore) WriteAt(file uint32, p []byte, off int64) error {
	s.writes.Add(1)
	s.writeBytes.Add(int64(len(p)))
	return s.inner.WriteAt(file, p, off)
}

func (s *countStore) Size(file uint32) (int64, error)      { return s.inner.Size(file) }
func (s *countStore) Create(file uint32, size int64) error { return s.inner.Create(file, size) }
func (s *countStore) Files() ([]uint32, error)             { return s.inner.Files() }
func (s *countStore) Close() error                         { return s.inner.Close() }

// storeCounts is a snapshot of a set of countStores, summed.
type storeCounts struct{ reads, writes, readBytes, writeBytes int64 }

func sumStores(stores []*countStore) storeCounts {
	var c storeCounts
	for _, s := range stores {
		c.reads += s.reads.Load()
		c.writes += s.writes.Load()
		c.readBytes += s.readBytes.Load()
		c.writeBytes += s.writeBytes.Load()
	}
	return c
}

func (c storeCounts) sub(o storeCounts) storeCounts {
	return storeCounts{c.reads - o.reads, c.writes - o.writes, c.readBytes - o.readBytes, c.writeBytes - o.writeBytes}
}
