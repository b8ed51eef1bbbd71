package cli

import (
	"context"
	"fmt"
	"io"

	"chameleon"
	"chameleon/internal/extrap"
	"chameleon/internal/store"
	"chameleon/internal/trace"
)

func chamextrap(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamextrap", stderr)
	target := fs.Int("target", 0, "target rank count")
	out := fs.String("o", "", "output trace path")
	replayIt := fs.Bool("replay", false, "replay the extrapolated trace and report its makespan")
	if err := parseRefs(fs, args); err != nil {
		return err
	}
	if *target <= 1 || fs.NArg() < 1 {
		return usageError("usage: chamextrap -target P [-o out.trace] [-replay] trace-file...")
	}

	sources := make([]*trace.File, 0, fs.NArg())
	for _, path := range fs.Args() {
		f, err := store.LoadTrace(path)
		if err != nil {
			return err
		}
		sources = append(sources, f)
	}
	base := sources[len(sources)-1]

	result, err := extrap.Extrapolate(base, *target)
	if err != nil {
		return err
	}
	if len(sources) >= 2 {
		if err := extrap.FitTiming(sources, result); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "timing fitted from %d traces (P=", len(sources))
		for i, s := range sources {
			if i > 0 {
				fmt.Fprint(stdout, ",")
			}
			fmt.Fprint(stdout, s.P)
		}
		fmt.Fprintln(stdout, ")")
	}
	fmt.Fprintf(stdout, "extrapolated %s trace: P=%d -> P=%d, %d nodes\n",
		base.Benchmark, base.P, result.P, trace.NodeCount(result.Nodes))

	if *out != "" {
		if err := result.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *replayIt {
		res, err := chameleon.Replay(result, chameleon.DefaultModel())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replay at P=%d: %v (%d events)\n", result.P, res.Time, res.Events)
	}
	return nil
}
