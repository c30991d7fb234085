//go:build race

package graph_test

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// Puts on purpose, so a search's pooled scratch is reallocated at random
// and allocations per search stop being a property of the code.
const raceEnabled = true
