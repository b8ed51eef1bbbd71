//go:build !race

package store

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

// stormPushers is the storm test's concurrency. The full 1024-pusher
// storm runs in normal test builds; under -race the build-tagged
// sibling drops it to 64 so the race detector's per-goroutine overhead
// keeps the test inside CI budgets.
const stormPushers = 1024
