//go:build !race

package mpi

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
