//go:build !race

package ipc

const raceEnabled = false
