//go:build !race

package schedd

const raceEnabled = false
