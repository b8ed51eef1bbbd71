//go:build !race

package ranklist

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
