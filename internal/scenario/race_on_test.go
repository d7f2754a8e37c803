//go:build race

package scenario

// raceEnabled: under the race detector sync.Pool drops a share of what is Put
// at random, so an allocation count that rests on pooled scratch does not
// hold.
const raceEnabled = true
