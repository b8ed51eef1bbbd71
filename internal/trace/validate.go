package trace

import (
	"fmt"

	"chameleon/internal/mpi"
)

// Validate checks a trace file's structural invariants before replay or
// analysis consumes it: a rank count within the decoders' bound, rank
// lists within [0, P), loop nodes non-empty with positive trip counts,
// leaf operations known, end-point encodings well-formed for their
// operation, and nesting within the serializer's depth bound. It
// returns the first violation found.
func (f *File) Validate() error {
	if err := checkRankCount(f.P); err != nil {
		return err
	}
	return validateSeq(f.Nodes, f.P, 0)
}

// checkRankCount rejects a rank count outside [1, maxRankExpansion]. A
// file's P sizes every per-rank table a reader allocates (Volumes
// answers a row per rank), so both decoders hold it to the bound one
// rank list already has: a 19-byte payload must not claim 2^40 ranks.
func checkRankCount(p int) error {
	if p <= 0 || p > maxRankExpansion {
		return fmt.Errorf("trace: invalid rank count %d (want 1..%d)", p, maxRankExpansion)
	}
	return nil
}

func validateSeq(seq []*Node, p, depth int) error {
	if depth > maxBinaryDepth {
		return fmt.Errorf("trace: loop nesting exceeds %d", maxBinaryDepth)
	}
	for i, n := range seq {
		if n == nil {
			return fmt.Errorf("trace: nil node at depth %d index %d", depth, i)
		}
		if n.IsLoop() {
			if n.Iters == 0 && (n.ItersHist == nil || n.ItersHist.Count() == 0) {
				return fmt.Errorf("trace: loop with zero iterations at depth %d index %d", depth, i)
			}
			if len(n.Body) == 0 {
				return fmt.Errorf("trace: empty loop body at depth %d index %d", depth, i)
			}
			if err := validateSeq(n.Body, p, depth+1); err != nil {
				return err
			}
			continue
		}
		if err := validateLeaf(n, p); err != nil {
			return fmt.Errorf("%w (depth %d index %d)", err, depth, i)
		}
	}
	return nil
}

func validateLeaf(n *Node, p int) error {
	if n.Ev.Op == mpi.OpNone || n.Ev.Op.String() == "op?" {
		return fmt.Errorf("trace: unknown operation %d", n.Ev.Op)
	}
	if n.Ranks.Empty() {
		return fmt.Errorf("trace: leaf with empty rank list")
	}
	// A list in normal form runs upwards from its first descriptor's
	// start to its last descriptor's far end.
	d := n.Ranks.Descriptors()
	last := d[len(d)-1]
	end := last.Start
	for _, dim := range last.Dims {
		end += (dim.Iters - 1) * dim.Stride
	}
	for _, r := range [2]int{d[0].Start, end} {
		if r < 0 || r >= p {
			return fmt.Errorf("trace: rank %d outside [0,%d)", r, p)
		}
	}
	if n.Ev.Bytes < 0 {
		return fmt.Errorf("trace: negative byte count %d", n.Ev.Bytes)
	}
	if err := validateEndpoint(n.Ev.Dest, p); err != nil {
		return fmt.Errorf("dest: %w", err)
	}
	if err := validateEndpoint(n.Ev.Src, p); err != nil {
		return fmt.Errorf("src: %w", err)
	}
	// Sends need a destination; receives need a source.
	switch n.Ev.Op {
	case mpi.OpSend, mpi.OpIsend:
		if n.Ev.Dest.Kind == EPNone {
			return fmt.Errorf("trace: send without destination")
		}
	case mpi.OpRecv, mpi.OpIrecv:
		if n.Ev.Src.Kind == EPNone {
			return fmt.Errorf("trace: receive without source")
		}
	case mpi.OpSendrecv:
		if n.Ev.Dest.Kind == EPNone || n.Ev.Src.Kind == EPNone {
			return fmt.Errorf("trace: sendrecv missing an end-point")
		}
	}
	return nil
}

func validateEndpoint(e Endpoint, p int) error {
	switch e.Kind {
	case EPNone, EPRelative, EPReplyToLast, EPAnySource:
		return nil
	case EPAbsolute:
		if e.Off < 0 || e.Off >= p {
			return fmt.Errorf("trace: absolute rank %d outside [0,%d)", e.Off, p)
		}
		return nil
	}
	return fmt.Errorf("trace: unknown end-point kind %d", e.Kind)
}
