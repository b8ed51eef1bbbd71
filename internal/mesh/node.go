package mesh

// Node is one chamd peer's view of the federation: the ring, its own
// identity, and the HTTP plumbing for talking to the other owners.
// The store's HTTP layer drives it (fan-out on PUT, proxy on GET,
// scatter-gather on list); the anti-entropy Sweep drives itself.

import (
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"chameleon/internal/httpx"
	"chameleon/internal/obs"
)

// Federation request headers.
const (
	// HeaderTenant namespaces every run, live session, and query.
	HeaderTenant = "X-Cham-Tenant"
	// HeaderForward marks intra-mesh traffic. A forwarded request is
	// served strictly locally (no re-fan-out, no re-proxy), which is
	// both the loop guard and the "ask this exact peer" primitive.
	HeaderForward = "X-Cham-Mesh"
	// HeaderKey carries the shared mesh secret. When a mesh is started
	// with one, HeaderForward is only honored alongside a matching key,
	// so external clients cannot claim intra-mesh trust by setting a
	// header.
	HeaderKey = "X-Cham-Mesh-Key"
	// ForwardFanout is a peer-to-peer replica write or scatter read.
	ForwardFanout = "fanout"
	// ForwardRepair is an anti-entropy pull; receivers skip continuous-
	// query evaluation so a converging peer never re-fires a gate.
	ForwardRepair = "repair"
)

// Forwarded reports whether the request is intra-mesh traffic.
func Forwarded(r *http.Request) bool { return r.Header.Get(HeaderForward) != "" }

// Repair reports whether the request is an anti-entropy pull.
func Repair(r *http.Request) bool { return r.Header.Get(HeaderForward) == ForwardRepair }

// Entry is one (tenant, run) pair in a peer's manifest, the unit the
// anti-entropy sweep reasons about. Edges marks a run carrying a causal
// edge sidecar, so sidecars converge onto owners exactly like runs.
type Entry struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
	Edges  bool   `json:"edges,omitempty"`
}

// Target is the local archive surface the sweep converges: what runs
// and sidecars it has, and how to store copies pulled from a peer.
type Target interface {
	// Entries lists every (tenant, run) the local archive holds.
	Entries() []Entry
	// Have reports whether the run is already stored locally.
	Have(tenant, id string) bool
	// Pull ingests a canonical payload fetched from a peer.
	Pull(tenant string, payload []byte) error
	// HaveEdges reports whether the run's edge sidecar is stored
	// locally.
	HaveEdges(tenant, id string) bool
	// PullEdges attaches a sidecar (JSONL bytes) fetched from a peer.
	PullEdges(tenant, id string, jsonl []byte) error
}

// broadcastTimeout bounds each best-effort fan-out call (CQ
// registrations, deletions, event broadcasts) so one partitioned peer
// cannot stall the ingest path for the full mesh client timeout.
const broadcastTimeout = 3 * time.Second

// Options configures a Node.
type Options struct {
	// Self is this peer's own URL as it appears in Peers.
	Self string
	// Peers is the full static membership, self included.
	Peers []string
	// Replicas is the ownership factor R (default 2, clamped to the
	// peer count).
	Replicas int
	// Client overrides the intra-mesh HTTP client (tests). The default
	// rides the process's one transport (httpx.Transport).
	Client *http.Client
	// Secret, when non-empty, is the shared mesh key: every intra-mesh
	// request carries it (HeaderKey) and peers reject the forward
	// header without it. Empty means cooperative trust — the forward
	// header alone is honored, which is fine on a private network but
	// is not a security boundary (docs/STORE.md).
	Secret string
	// Reg receives mesh_* counters, the per-peer ones among them.
	Reg *obs.Registry
}

// Node is one peer's federation state. All methods are safe for
// concurrent use (the ring is immutable).
type Node struct {
	ring     *Ring
	self     string
	others   []string
	replicas int
	parts    *Partitions
	secret   string
	hc       *http.Client
	bc       *http.Client // short-timeout client for best-effort broadcasts
	// byPeer holds each other peer's counters, registered once, so a
	// call finds them with a lookup that allocates nothing.
	byPeer map[string]peerCounters

	mSweeps, mPulled, mSweepErrs *obs.Counter
}

// peerCounters count what Do sends one peer: requests, request-body
// bytes, and failures (a transport error or a 5xx answer).
type peerCounters struct {
	requests, bytesOut, errors *obs.Counter
}

// NewNode builds a peer's federation state. Self must appear in the
// peer list.
func NewNode(opts Options) (*Node, error) {
	ring, err := NewRing(opts.Peers, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	self := strings.TrimSuffix(strings.TrimSpace(opts.Self), "/")
	if !slices.Contains(ring.Peers(), self) {
		return nil, fmt.Errorf("mesh: self %q is not in the peer list %v", self, ring.Peers())
	}
	others := slices.DeleteFunc(ring.Peers(), func(p string) bool { return p == self })
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Replicas > len(ring.Peers()) {
		opts.Replicas = len(ring.Peers())
	}
	hc := opts.Client
	if hc == nil {
		hc = httpx.Client(30 * time.Second)
	}
	byPeer := make(map[string]peerCounters, len(others))
	for _, p := range others {
		label := `{peer="` + p + `"}`
		byPeer[p] = peerCounters{
			requests: opts.Reg.Counter("mesh_peer_requests" + label),
			bytesOut: opts.Reg.Counter("mesh_peer_bytes_out" + label),
			errors:   opts.Reg.Counter("mesh_peer_errors" + label),
		}
	}
	return &Node{
		ring:       ring,
		self:       self,
		others:     others,
		replicas:   opts.Replicas,
		parts:      ring.Partitions(opts.Replicas),
		secret:     opts.Secret,
		hc:         hc,
		bc:         httpx.Client(broadcastTimeout),
		byPeer:     byPeer,
		mSweeps:    opts.Reg.Counter("mesh_sweeps"),
		mPulled:    opts.Reg.Counter("mesh_sweep_pulled"),
		mSweepErrs: opts.Reg.Counter("mesh_sweep_errors"),
	}, nil
}

// Self returns this peer's normalized URL.
func (n *Node) Self() string { return n.self }

// Peers returns the full membership.
func (n *Node) Peers() []string { return n.ring.Peers() }

// Others returns the membership minus self.
func (n *Node) Others() []string { return append([]string(nil), n.others...) }

// Replicas returns the ownership factor R.
func (n *Node) Replicas() int { return n.replicas }

// Owners returns the R peers owning a run, primary first.
func (n *Node) Owners(id string) []string { return n.ring.Owners(id, n.replicas) }

// Partition returns the ring partition of a run: the index of its owner
// set, numbered alike on every peer of the membership (Partitions).
func (n *Node) Partition(id string) int { return n.parts.Of(id) }

// IsOwner reports whether this peer is one of the run's R owners.
func (n *Node) IsOwner(id string) bool { return slices.Contains(n.Owners(id), n.self) }

// IsPrimary reports whether this peer is the run's first owner — the
// one that evaluates continuous queries on ingest.
func (n *Node) IsPrimary(id string) bool {
	owners := n.Owners(id)
	return len(owners) > 0 && owners[0] == n.self
}

// Secured reports whether the mesh authenticates intra-mesh traffic
// with a shared key.
func (n *Node) Secured() bool { return n.secret != "" }

// Authorized reports whether a request is trusted intra-mesh traffic:
// the forward header plus, when the mesh has a shared secret, the
// matching key. Without a secret — or without a mesh: a nil Node — the
// header alone is honored: cooperative trust, not a security boundary
// (docs/STORE.md).
func (n *Node) Authorized(r *http.Request) bool {
	if !Forwarded(r) {
		return false
	}
	if n == nil || n.secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(HeaderKey)), []byte(n.secret)) == 1
}

// Call is one intra-mesh request.
type Call struct {
	Method string // "" means GET
	Peer   string
	Path   string // path plus query
	Tenant string
	Kind   string // ForwardFanout ("" means that) or ForwardRepair
	// Header holds extra request headers: a body's Content-Type, a
	// proxied read's conditional and negotiation headers.
	Header http.Header
	Body   []byte
	// Lease, when non-nil, is the claim on Body's bytes its caller holds
	// (a PUT body leased from the receiving server's pool): every reader
	// of Body the transport gets holds a reference until the transport
	// closes it, so the bytes outlive Do when the peer answers before it
	// has read them all.
	Lease httpx.Lease
	// BestEffort bounds the call by broadcastTimeout instead of the mesh
	// client timeout: CQ fan-outs and event broadcasts ride it, so a
	// partitioned (non-refusing) peer delays the caller only briefly.
	BestEffort bool
}

// Do sends an intra-mesh request — the forward header (the receiver's
// loop guard), the shared mesh key when one is configured, and the
// tenant are set — and returns the response as-is. The body goes onto
// the socket from c.Body itself (httpx.NewRequest).
func (n *Node) Do(c Call) (*http.Response, error) {
	method := c.Method
	if method == "" {
		method = http.MethodGet
	}
	req, err := httpx.NewRequest(method, c.Peer+c.Path, c.Body, c.Lease)
	if err != nil {
		return nil, err
	}
	for k, vs := range c.Header {
		req.Header[k] = vs
	}
	kind := c.Kind
	if kind == "" {
		kind = ForwardFanout
	}
	req.Header.Set(HeaderForward, kind)
	if n.secret != "" {
		req.Header.Set(HeaderKey, n.secret)
	}
	if c.Tenant != "" {
		req.Header.Set(HeaderTenant, c.Tenant)
	}
	client := n.hc
	if c.BestEffort {
		client = n.bc
	}
	resp, err := client.Do(req)
	n.count(c.Peer, len(c.Body), resp, err)
	return resp, err
}

// count books one call to peer on its counters; a peer outside the
// membership has none.
func (n *Node) count(peer string, bodyBytes int, resp *http.Response, err error) {
	pc, ok := n.byPeer[peer]
	if !ok {
		return
	}
	pc.requests.Inc()
	pc.bytesOut.Add(uint64(bodyBytes))
	if err != nil || resp.StatusCode >= 500 {
		pc.errors.Inc()
	}
}

// getBody fetches an intra-mesh URL and returns the body on 200.
func (n *Node) getBody(peer, path, tenant, kind string) ([]byte, error) {
	resp, err := n.Do(Call{Peer: peer, Path: path, Tenant: tenant, Kind: kind})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("mesh: GET %s%s: %s: %s", peer, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return io.ReadAll(resp.Body)
}
