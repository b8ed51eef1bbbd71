package trace

import (
	"chameleon/internal/sig"
	"chameleon/internal/stats"

	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// File is a complete trace file: the global compressed sequence plus the
// run metadata the replayer needs.
type File struct {
	// P is the number of ranks of the traced run.
	P int `json:"p"`
	// Benchmark names the traced application (informational).
	Benchmark string `json:"benchmark,omitempty"`
	// Tracer names the producing tool ("scalatrace", "chameleon", ...).
	Tracer string `json:"tracer,omitempty"`
	// Clustered reports whether rank lists are cluster rank lists (the
	// replayer then re-interprets lead traces for all members).
	Clustered bool `json:"clustered"`
	// Filter records whether the parameter filter was active.
	Filter bool `json:"filter,omitempty"`
	// Retired lists ranks that crash-stopped during the traced run (their
	// events end at the crash marker; empty for fault-free runs).
	Retired []int `json:"retired,omitempty"`
	// Sites is the call-site table of the trace: one entry per distinct
	// stack signature, with function/file:line where known. The codecs
	// take site labels from it, and a decoded file holds it as read;
	// producers populate it via SiteTable.
	Sites []sig.SiteInfo `json:"sites,omitempty"`
	// Nodes is the compressed global trace.
	Nodes []*Node `json:"nodes"`
}

// SiteTable computes the site table the file's encoding carries: its
// leaves' distinct signatures in order of first use, each labelled by
// its Sites entry or else by its leaf's live site in sig.Sites.
func (f *File) SiteTable() []sig.SiteInfo {
	return collectSites(f).sites
}

// nodeJSON mirrors Node for serialization (Node itself would marshal
// fine, but the mirror keeps empty leaf/loop halves out of the output).
type nodeJSON struct {
	Ev    *Event          `json:"ev,omitempty"`
	Ranks json.RawMessage `json:"ranks,omitempty"`
	Delta json.RawMessage `json:"delta,omitempty"`

	Iters     uint64          `json:"iters,omitempty"`
	Body      []*Node         `json:"body,omitempty"`
	ItersHist json.RawMessage `json:"itersHist,omitempty"`
}

// MarshalJSON implements json.Marshaler for Node.
func (n *Node) MarshalJSON() ([]byte, error) {
	var j nodeJSON
	var err error
	if n.IsLoop() {
		j.Iters = n.Iters
		j.Body = n.Body
		if n.ItersHist != nil {
			if j.ItersHist, err = json.Marshal(n.ItersHist); err != nil {
				return nil, err
			}
		}
	} else {
		ev := n.Ev
		j.Ev = &ev
		if j.Ranks, err = json.Marshal(n.Ranks); err != nil {
			return nil, err
		}
		if n.Delta != nil {
			if j.Delta, err = json.Marshal(n.Delta); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler for Node.
func (n *Node) UnmarshalJSON(data []byte) error {
	var j nodeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*n = Node{}
	if j.Ev != nil {
		n.Ev = *j.Ev
		if j.Ranks != nil {
			if err := json.Unmarshal(j.Ranks, &n.Ranks); err != nil {
				return err
			}
		}
		if j.Delta != nil {
			n.Delta = new(stats.Histogram)
			if err := json.Unmarshal(j.Delta, n.Delta); err != nil {
				return err
			}
		}
		return nil
	}
	n.Iters = j.Iters
	n.Body = j.Body
	if n.Body == nil {
		// A loop always carries a body; an empty one keeps IsLoop true.
		n.Body = []*Node{}
	}
	if j.ItersHist != nil {
		n.ItersHist = new(stats.Histogram)
		if err := json.Unmarshal(j.ItersHist, n.ItersHist); err != nil {
			return err
		}
	}
	return nil
}

// Write serializes the trace file to w.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// Read deserializes a JSON trace file from r. The decoded tree is
// re-encoded and read back by DecodeBinary, so a JSON file meets every
// bound of the binary reader, and its rank lists come back in normal
// form, within the same budget, as every decoded file's do; its site
// table is the JSON's own.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := checkRankCount(f.P); err != nil {
		return nil, err
	}
	if err := checkNoNull(f.Nodes); err != nil {
		return nil, err
	}
	out, err := DecodeBinary(f.AppendBinary(nil))
	if err != nil {
		return nil, jsonRefusal{errors.Unwrap(err)}
	}
	return out, nil
}

// jsonRefusal is the binary reader's refusal of a JSON file's
// re-encoding, worded for the JSON the caller gave: the walker's own
// message names the binary form, and its rank budget is counted in
// bytes of the re-encoding, not of the JSON.
type jsonRefusal struct{ err error } // the walker's error

func (e jsonRefusal) Error() string {
	if errors.Is(e.err, errRankBudget) {
		return fmt.Sprintf("trace: decode JSON: rank lists not in normal form expand past the file's budget "+
			"(%d ranks plus one for each byte of its binary re-encoding)", maxRankExpansion)
	}
	return "trace: decode JSON: " + strings.TrimPrefix(e.err.Error(), "trace: ")
}

func (e jsonRefusal) Unwrap() error { return e.err }

// checkNoNull checks that the tree holds no null node.
func checkNoNull(seq []*Node) error {
	for _, n := range seq {
		switch {
		case n == nil:
			return fmt.Errorf("trace: decode: null node")
		case n.IsLoop():
			if err := checkNoNull(n.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// Save writes the trace file to path.
func (f *File) Save(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := f.Write(out); err != nil {
		return err
	}
	return out.Close()
}

// Load reads a trace file from path.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}
