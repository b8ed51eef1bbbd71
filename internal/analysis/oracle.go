package analysis

import (
	"fmt"
	"strings"

	"chameleon/internal/replay"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
	"chameleon/internal/zan"
)

// OracleTol is the relative tolerance CrossCheck grants float-valued
// metrics. Integer-valued metrics (event counts, nanosecond sums, match
// counters) must be bit-identical between the closed-form walk and the
// expansion oracle; only the pooled delta moments (mean/std via
// stats.MergeScaled) and the derived ratios may drift by float
// round-off.
const OracleTol = 1e-9

// CrossCheck proves a trace's closed-form report against two
// independent references: the expansion oracle (field-by-field via
// zan.Diff) and the event replayer (dynamic event count). The oracle
// runs zan in expansion mode, applying every leaf contribution once per
// dynamic occurrence instead of multiplying by loop trip counts: it is
// linear in dynamic events, a validation and not an analysis. It returns
// the closed-form report on success and an error describing the first
// divergences otherwise.
func CrossCheck(f *trace.File, model vtime.CostModel) (*zan.Report, error) {
	fast, err := zan.Analyze(f, zan.Options{Model: model})
	if err != nil {
		return nil, err
	}
	slow, err := zan.Analyze(f, zan.Options{Model: model, Expand: true})
	if err != nil {
		return nil, err
	}
	if diffs := zan.Diff(fast, slow, OracleTol); len(diffs) > 0 {
		if len(diffs) > 8 {
			diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
		}
		return nil, fmt.Errorf("analysis: closed-form walk diverges from expansion oracle:\n  %s",
			strings.Join(diffs, "\n  "))
	}
	if len(f.Nodes) == 0 {
		return fast, nil // replay rejects empty traces; nothing to count
	}
	if len(f.Retired) > 0 {
		// A crash trace is generally not replayable: surviving ranks
		// whose point-to-point partner departed would wait forever (the
		// documented replay limit, docs/FAULTS.md). The expansion oracle
		// above still validated every metric field by field.
		return fast, nil
	}
	res, err := replay.Run(f, model)
	if err != nil {
		return nil, fmt.Errorf("analysis: replay oracle failed: %w", err)
	}
	if fast.Events != res.Events {
		return nil, fmt.Errorf("analysis: compressed-domain event count %d != replayed %d",
			fast.Events, res.Events)
	}
	return fast, nil
}
