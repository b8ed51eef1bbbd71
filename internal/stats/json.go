package stats

import "encoding/json"

// histJSON is the serialized form of a Histogram. Variance is not
// persisted (the replayer only consumes counts, extrema and the mean),
// so a round-tripped histogram reports Std()==0; this matches
// ScalaTrace's on-disk delta-time summaries.
type histJSON struct {
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Mean    float64        `json:"mean"`
	Count   uint64         `json:"count"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{Min: h.Min, Max: h.Max, Mean: h.sum.Mean(), Count: h.Count()}
	if h.Count() > 0 {
		j.Buckets = make(map[int]uint64)
		h.EachBucket(func(i int, c uint64) bool {
			j.Buckets[i] = c
			return true
		})
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*h = *NewHistogram()
	h.Min, h.Max = j.Min, j.Max
	for i, c := range j.Buckets {
		if i >= 0 && i < 64 {
			h.SetBucket(i, c)
		}
	}
	h.sum = Welford{n: j.Count, mean: j.Mean}
	return nil
}
