//go:build race

package server

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// Puts on purpose, so pooled search scratches are reallocated at random
// and allocated bytes stop being a property of the code.
const raceEnabled = true
