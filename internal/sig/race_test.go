//go:build race

package sig

// raceEnabled reports a -race build. The race detector changes what a
// call allocates, so the byte-count guards skip under it.
const raceEnabled = true
