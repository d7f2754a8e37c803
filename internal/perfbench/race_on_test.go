//go:build race

package perfbench

// raceEnabled: under the race detector sync.Pool drops a share of what is Put
// at random, so an allocation count that rests on pooled scratch needs more
// room.
const raceEnabled = true
