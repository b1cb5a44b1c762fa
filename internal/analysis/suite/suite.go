// Package suite assembles the production vlint analyzer suite,
// including the repository's declared lock order. cmd/vlint and the
// self-check test both run exactly this configuration.
package suite

import (
	"vkernel/internal/analysis"
	"vkernel/internal/analysis/bufref"
	"vkernel/internal/analysis/lockorder"
	"vkernel/internal/analysis/spawncheck"
	"vkernel/internal/analysis/unlockpath"
	"vkernel/internal/analysis/wireword"
)

// LockOrder is the declared partial nesting order over the kernel's
// lock classes: a class may only be acquired while holding classes
// that appear earlier. Classes are (package.Type.field); acquiring
// against this order is a lockorder diagnostic. The order is derived
// from the real nesting in the tree (dump it with `vlint -lockgraph`):
// tables pin their per-entry locks before releasing the table lock,
// and the caches reach into stores while holding the cache lock — so
// tables and caches come before the entry/store locks they wrap.
var LockOrder = []string{
	// ipc: dispatch-side tables first (opTable is both n.pending and
	// n.moves: one class), then the per-entry locks they pin, then leaf
	// shards.
	"ipc.alienTable.mu",
	"ipc.opTable.mu",
	"ipc.pendingSend.io",
	"ipc.moveOp.io",
	"ipc.moveOp.mu",
	"ipc.moveRx.mu",
	"ipc.procShard.mu",
	// rfs: cache above the store it flushes into; registry above the
	// per-entry job state it feeds. (Cache→store nesting goes through
	// the Store interface, which the dynamic-dispatch-blind graph does
	// not see; the declaration still documents and enforces the order
	// for any direct acquisition that appears later.)
	"rfs.blockCache.mu",
	"rfs.cacheRegistry.mu",
	"rfs.FileStore.mu",
	"rfs.MemStore.mu",
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bufref.Analyzer,
		lockorder.New(LockOrder),
		spawncheck.Analyzer,
		unlockpath.Analyzer,
		wireword.Analyzer,
	}
}
