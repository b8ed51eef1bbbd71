//go:build !race

package sig

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
