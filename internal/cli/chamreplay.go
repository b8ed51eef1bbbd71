package cli

import (
	"context"
	"fmt"
	"io"

	"chameleon"
	"chameleon/internal/replay"
	"chameleon/internal/store"
)

func chamreplay(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamreplay", stderr)
	ref := fs.String("ref", "", "reference trace for the accuracy metric")
	delta := fs.String("delta", "mean", "computation-time draw: mean, min, max, sampled")
	if err := parseRefs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError("usage: chamreplay [-ref reference.trace] trace-file")
	}
	mode, ok := map[string]replay.DeltaMode{
		"mean": replay.DeltaMean, "min": replay.DeltaMin,
		"max": replay.DeltaMax, "sampled": replay.DeltaSampled,
	}[*delta]
	if !ok {
		return usageError(fmt.Sprintf("unknown delta mode %q", *delta))
	}

	f, err := store.LoadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := replay.RunWith(f, replay.Options{Delta: mode})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace       %s (%s, P=%d, clustered=%v)\n", fs.Arg(0), f.Tracer, f.P, f.Clustered)
	fmt.Fprintf(stdout, "replay time %v (virtual)\n", res.Time)
	fmt.Fprintf(stdout, "events      %d dynamic MPI events re-issued\n", res.Events)

	if *ref != "" {
		rf, err := store.LoadTrace(*ref)
		if err != nil {
			return err
		}
		rres, err := chameleon.Replay(rf, chameleon.DefaultModel())
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		fmt.Fprintf(stdout, "reference   %v (%s)\n", rres.Time, rf.Tracer)
		fmt.Fprintf(stdout, "accuracy    %.2f%%\n", chameleon.Accuracy(rres.Time, res.Time)*100)
	}
	return nil
}
