//go:build !race

package trace

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
