package main

import (
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job or
// archive op share the Job identifier; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     int    `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part its children cover;
	// filled in when the spans are written out.
	SelfNs int64 `json:"self_ns"`

	owner *spans
}

// spans keeps every span of a traced run in memory until the run ends.
// A nil *spans records nothing, which is how the end-to-end run keeps
// tracing off.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	all   []*span
	job   int
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span under parent (nil opens a root, which starts a new
// job identifier).
func (s *spans) begin(name string, parent *span) *span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &span{ID: len(s.all) + 1, Name: name, owner: s}
	if parent != nil {
		sp.Parent, sp.Job = parent.ID, parent.Job
	} else {
		s.job++
		sp.Job = s.job
	}
	s.all = append(s.all, sp)
	sp.StartNs = time.Since(s.epoch).Nanoseconds()
	return sp
}

func (sp *span) end() {
	if sp != nil {
		sp.EndNs = time.Since(sp.owner.epoch).Nanoseconds()
	}
}

// finish computes self times and returns the spans for writing.
func (s *spans) finish() []*span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.all {
		sp.SelfNs = sp.EndNs - sp.StartNs
	}
	for _, sp := range s.all {
		if sp.Parent > 0 {
			s.all[sp.Parent-1].SelfNs -= sp.EndNs - sp.StartNs
		}
	}
	return s.all
}

// durations returns the length of every span with the given name, in
// milliseconds.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.all {
		if sp.Name == name {
			out = append(out, float64(sp.EndNs-sp.StartNs)/1e6)
		}
	}
	return out
}
