//go:build !race

package ccache

const raceEnabled = false
