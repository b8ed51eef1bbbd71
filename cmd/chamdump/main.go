// Command chamdump pretty-prints a compressed trace file as an indented
// PRSD listing: loops with iteration counts, events with stack
// signatures, end-point encodings, rank lists and delta-time histograms.
//
// Usage:
//
//	chamdump lu.trace
//	chamdump -stats lu.trace   # compression ratio + per-window node counts
//	chamdump -sites lu.trace   # print the interned call-site table
//	chamdump http://host:8321/runs/<id>   # fetch from a chamd archive
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamdump", os.Args[1:], os.Stdout, os.Stderr))
}
