// Command chamreplay interprets a trace file produced by chamrun on the
// simulated runtime (the ScalaReplay reproduction) and reports the
// replay makespan. With -ref it also computes the paper's accuracy
// metric ACC = 1-|t-t'|/t against a reference trace's replay time.
//
// Usage:
//
//	chamreplay lu.trace
//	chamreplay -ref lu-scalatrace.trace lu-chameleon.trace
//
// Trace arguments may be http(s):// run references into a chamd
// archive (docs/STORE.md).
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamreplay", os.Args[1:], os.Stdout, os.Stderr))
}
