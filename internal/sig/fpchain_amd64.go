package sig

// fpChain collects the physical return-address chain of the calling
// goroutine (fpchain_amd64.s).
//
//go:noescape
func fpChain(buf *uintptr, n int) int
