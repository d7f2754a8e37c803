//go:build !race

package perfbench

const raceEnabled = false
