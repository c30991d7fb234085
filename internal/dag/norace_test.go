//go:build !race

package dag

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
