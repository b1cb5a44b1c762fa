//go:build race

package ipc

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of the buffers put back, so a pooled path allocates there.
const raceEnabled = true
