//go:build !amd64

package sig

// fpChain has no frame-pointer walk on this architecture: reporting every
// chain as too deep sends CaptureSite down the full runtime.Callers walk.
func fpChain(buf *uintptr, n int) int { return -1 }
