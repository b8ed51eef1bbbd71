package obs

// Prometheus text exposition of a metrics snapshot, so chamd (and any
// live run behind it) is scrapeable by standard tooling. Counters and
// gauges render as themselves; histograms render as summaries (the
// registry's log2 buckets already interpolate stable p50/p90/p99, which
// is what the snapshot carries).

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PrometheusContentType is the exposition-format content type.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Metric families are sorted by
// name so output is deterministic. A counter or gauge name may carry
// its labels (`mesh_peer_requests{peer="..."}`); the samples of one
// family go together, under one TYPE line.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	if err := writeSamples(w, "counter", s.Counters); err != nil {
		return err
	}
	if err := writeSamples(w, "gauge", s.Gauges); err != nil {
		return err
	}

	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		// sum is reconstructed from the snapshot mean; the registry keeps
		// an exact sum but the snapshot carries the mean, and count*mean
		// is exact enough for rate math.
		sum := h.Mean * int64(h.Count)
		_, err := fmt.Fprintf(w,
			"# TYPE %s summary\n%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.9\"} %d\n%s{quantile=\"0.99\"} %d\n%s_sum %d\n%s_count %d\n",
			name, name, h.P50, name, h.P90, name, h.P99, name, sum, name, h.Count)
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSamples writes one sample per name, sorted by family and then by
// name, and a TYPE line before the first sample of each family.
func writeSamples[V uint64 | int64](w io.Writer, typ string, samples map[string]V) error {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if fi, fj := familyOf(names[i]), familyOf(names[j]); fi != fj {
			return fi < fj
		}
		return names[i] < names[j]
	})
	family := ""
	for i, name := range names {
		if f := familyOf(name); i == 0 || f != family {
			family = f
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, samples[name]); err != nil {
			return err
		}
	}
	return nil
}

// familyOf is a sample name without its labels.
func familyOf(name string) string {
	f, _, _ := strings.Cut(name, "{")
	return f
}
