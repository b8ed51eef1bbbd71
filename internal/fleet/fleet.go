// Package fleet glues the mpi TCP transport to the tracing stack: it
// registers wire codecs for the payload types the tracers ship between
// ranks (compressed trace sequences, cluster candidate lists — types
// the mpi package cannot import without a cycle), and parses the
// chamrun -ranks/-join flags into a connected transport.
//
// A multi-process run is N invocations of the same binary:
//
//	chamrun -transport=tcp -join=:9307 -ranks=0..3  ...
//	chamrun -transport=tcp -join=:9307 -ranks=4..7  ...
//
// Whichever process binds the join address coordinates the rendezvous;
// the rest dial it. Every process must be started with the same
// benchmark, seed, tracer, and fault plan — the config fingerprint is
// checked at rendezvous so a mismatched fleet fails fast instead of
// diverging.
package fleet

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
)

func init() {
	// Compressed trace sequences (inter-node merge traffic), in the trace
	// binary codec. The merge compares Stack signatures, the same in every
	// process, but gets nodes, not the payload's site table: the receiver
	// interns that into sig.Sites and binds each leaf to its site, so the
	// trace it writes from the merged nodes names the sites.
	mpi.RegisterPayloadCodec(mpi.PayloadCodec{
		Name: "trace.nodes",
		Zero: []*trace.Node{},
		Encode: func(v any) ([]byte, error) {
			f := &trace.File{P: 1, Nodes: v.([]*trace.Node)}
			return f.MarshalBinary()
		},
		Decode: func(data []byte) (any, error) {
			f, err := trace.DecodeBinary(data)
			if err != nil {
				return nil, err
			}
			ids := make(map[sig.Stack]sig.SiteID, len(f.Sites))
			for _, s := range f.Sites {
				ids[sig.Stack(s.Sig)] = sig.Sites.InternSigMeta(s)
			}
			bindSites(f.Nodes, ids)
			return f.Nodes, nil
		},
	})
	// Cluster candidate lists (Algorithm 2's merge tree). Plain JSON:
	// every Item field marshals, and signature triples are value types.
	mpi.RegisterPayloadCodec(mpi.PayloadCodec{
		Name: "cluster.items",
		Zero: []cluster.Item{},
		Encode: func(v any) ([]byte, error) {
			return json.Marshal(v.([]cluster.Item))
		},
		Decode: func(data []byte) (any, error) {
			var items []cluster.Item
			if err := json.Unmarshal(data, &items); err != nil {
				return nil, err
			}
			if items == nil {
				items = []cluster.Item{}
			}
			return items, nil
		},
	})
}

// bindSites gives every leaf the site ids names for its signature.
func bindSites(seq []*trace.Node, ids map[sig.Stack]sig.SiteID) {
	for _, n := range seq {
		if n.IsLoop() {
			bindSites(n.Body, ids)
		} else {
			n.Ev.Site = ids[n.Ev.Stack]
		}
	}
}

// ParseRanks parses a -ranks value: "a..b" (inclusive) or a single
// rank "a".
func ParseRanks(s string) (lo, hi int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, fmt.Errorf("fleet: empty rank range")
	}
	if lo64, err := strconv.Atoi(s); err == nil {
		return lo64, lo64, nil
	}
	a, b, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, fmt.Errorf("fleet: rank range %q is not \"lo..hi\"", s)
	}
	if lo, err = strconv.Atoi(strings.TrimSpace(a)); err != nil {
		return 0, 0, fmt.Errorf("fleet: bad rank range start %q", a)
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(b)); err != nil {
		return 0, 0, fmt.Errorf("fleet: bad rank range end %q", b)
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("fleet: invalid rank range %d..%d", lo, hi)
	}
	return lo, hi, nil
}

// Connect parses the rank range hosted by this process ("lo..hi" or a
// single "r") into o, performs the fleet rendezvous, and returns the
// connected transport, ready to pass as chameleon.Config.Transport; its
// Info describes this process's place in the fleet.
func Connect(ranks string, o mpi.TCPOptions) (*mpi.TCPTransport, error) {
	var err error
	if o.RankLo, o.RankHi, err = ParseRanks(ranks); err != nil {
		return nil, err
	}
	if o.Join == "" {
		return nil, fmt.Errorf("fleet: -join address required for the tcp transport")
	}
	return mpi.NewTCPTransport(o)
}
