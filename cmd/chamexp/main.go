// Command chamexp regenerates the paper's evaluation: every table and
// figure (Tables I-IV, Figures 4-11) measured on the simulated runtime.
//
// Usage:
//
//	chamexp [-full] [-only id] [-list]
//
// By default chamexp runs laptop-scale parameters (P up to 64); -full
// runs the paper-scale parameters (P up to 1024, EMF up to 1001), which
// takes substantially longer. -only runs a single experiment by id
// (table1..table4, fig4..fig11).
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamexp", os.Args[1:], os.Stdout, os.Stderr))
}
