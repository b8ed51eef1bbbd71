// Command chamextrap extrapolates a compressed trace to a different rank
// count (the ScalaExtrap companion capability): topological rank-list
// classes re-instantiate on the target process grid, grid-dependent
// end-point strides rescale, and (given multiple input traces)
// computation deltas follow a fitted strong-scaling law.
//
// Usage:
//
//	chamextrap -target 1024 -o big.trace small.trace
//	chamextrap -target 1024 -o big.trace p16.trace p64.trace p256.trace
//
// With multiple inputs (ascending P), the last is the structural source
// and all contribute timing samples to the delta(P) = a + b/P fit.
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamextrap", os.Args[1:], os.Stdout, os.Stderr))
}
