//go:build race

package core

// raceEnabled reports whether the race detector is on; allocation
// guards skip under it because sync.Pool drops items at random there.
const raceEnabled = true
