package cli

import (
	"context"
	"fmt"
	"io"
	"time"

	"chameleon/internal/exp"
)

func chamexp(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamexp", stderr)
	full := fs.Bool("full", false, "run paper-scale parameters (P up to 1024)")
	only := fs.String("only", "", "run a single experiment id (e.g. fig4)")
	ext := fs.Bool("ext", false, "run the beyond-the-paper extension experiments")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(stdout, id)
		}
		for _, id := range exp.ExtensionIDs() {
			fmt.Fprintln(stdout, id, "(extension)")
		}
		return nil
	}

	params := exp.Quick()
	if *full {
		params = exp.Full()
	}
	ids, sep := exp.IDs(), "\n"
	switch {
	case *only != "":
		if _, ok := exp.Lookup(*only); !ok {
			return usageError(fmt.Sprintf("unknown experiment %q (use -list)", *only))
		}
		ids, sep = []string{*only}, ""
	case *ext:
		ids = exp.ExtensionIDs()
	}
	for _, id := range ids {
		run, _ := exp.Lookup(id)
		t0 := time.Now() // elapsed wall time for the reader of the table, not policy
		table, err := run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprint(stdout, table.Render())
		fmt.Fprintf(stdout, "[%s completed in %v]\n%s", id, time.Since(t0).Round(time.Millisecond), sep)
	}
	return nil
}
