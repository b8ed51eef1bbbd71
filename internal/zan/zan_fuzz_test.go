package zan

import (
	"reflect"
	"testing"

	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// checkAnalyzeMatchesReference fails t unless Analyze and the
// pre-change analyzer (zan_ref_test.go) return the same Report, field
// for field, in the closed-form and in the expansion mode — the rank
// classes expanded to the reference's per-rank rows, the rest as they
// are; and so do
// AnalyzeBytes over the file's encoding and the pre-change analyzer over
// the file decoded from it (the codec keeps a histogram's mean, not its
// variance). A list that reaches below rank 0 encodes but does not
// decode: then AnalyzeBytes must refuse the bytes as the decoder does.
func checkAnalyzeMatchesReference(t *testing.T, f *trace.File) {
	t.Helper()
	payload := f.AppendBinary(nil)
	decoded, err := trace.DecodeBinary(payload)
	if reachesBelowZero(f.Nodes) {
		if _, bytesErr := AnalyzeBytes(payload, Options{}); err == nil || bytesErr == nil {
			t.Fatalf("a list below rank 0: DecodeBinary err %v, AnalyzeBytes err %v; want both to refuse", err, bytesErr)
		}
		decoded = nil
	} else if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{}, {Expand: true}} {
		for _, c := range []struct {
			name    string
			f       *trace.File
			analyze func() (*Report, error)
		}{
			{"Analyze", f, func() (*Report, error) { return Analyze(f, opt) }},
			{"AnalyzeBytes", decoded, func() (*Report, error) { return AnalyzeBytes(payload, opt) }},
		} {
			if c.f == nil {
				continue // refused: checked above
			}
			want, wantRanks, err := refAnalyze(c.f, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.analyze()
			if err != nil {
				t.Fatal(err)
			}
			if ranks := expandClasses(t, got); !reflect.DeepEqual(ranks, wantRanks) {
				t.Fatalf("Expand=%v: %s rank rows differ from the reference:\n%+v\nvs\n%+v", opt.Expand, c.name, ranks, wantRanks)
			}
			rest := *got
			rest.RankClasses = nil
			if !reflect.DeepEqual(&rest, want) {
				t.Fatalf("Expand=%v: %s differs from the reference:\n%+v\nvs\n%+v", opt.Expand, c.name, &rest, want)
			}
		}
	}
}

// reachesBelowZero reports whether a leaf of nodes holds a rank below 0.
func reachesBelowZero(nodes []*trace.Node) bool {
	for _, n := range nodes {
		if n.IsLoop() && reachesBelowZero(n.Body) || !n.IsLoop() && !n.Ranks.Empty() && n.Ranks.Min() < 0 {
			return true
		}
	}
	return false
}

// FuzzAnalyzeMatchesReference: on every program tracegen draws the
// channel table reports exactly what the per-window channel maps did,
// whether zan walks the tree or its encoding.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	for _, seed := range tracegen.Seeds(34, 64) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnalyzeMatchesReference(t, tracegen.New(data).File())
	})
}

// TestAnalyzeMatchesReferenceFixtures runs the oracle over the
// package's hand-built traces and a multi-window ring.
func TestAnalyzeMatchesReferenceFixtures(t *testing.T) {
	for _, f := range []*trace.File{twoRankTrace(), ringTrace(64, 4), ringTrace(5, 3)} {
		checkAnalyzeMatchesReference(t, f)
	}
}
