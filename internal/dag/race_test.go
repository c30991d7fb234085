//go:build race

package dag

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// Puts on purpose, so the pooled build scratch is reallocated at random
// and bytes per build stop being a property of the code.
const raceEnabled = true
