//go:build race

package store

// raceEnabled reports a -race build. The race detector changes what a
// call allocates, so the byte-count guards skip under it, as the
// standard library's allocation tests do.
const raceEnabled = true

// stormPushers under -race: 64 workers, enough to exercise every
// cross-peer lock while staying inside the race detector's overhead.
const stormPushers = 64
