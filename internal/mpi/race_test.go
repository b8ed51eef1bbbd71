//go:build race

package mpi

// raceEnabled reports a -race build. The race detector changes what a
// call allocates, so the allocation guards skip under it.
const raceEnabled = true
