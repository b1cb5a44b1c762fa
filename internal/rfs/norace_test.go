//go:build !race

package rfs

const raceEnabled = false
