package store

// The federation layer: everything that connects one Archive and its
// local handlers (handlers.go) to the mesh.
//
//   - archiveTarget adapts the Archive to mesh.Target so the
//     anti-entropy sweep can enumerate, check, and pull runs.
//   - trust decides, once per request, whether it is intra-mesh
//     traffic; federate then wraps the route's handler in its policy:
//     replicateRun / replicateEdges (a write lands on every peer that
//     should hold it), proxyOnMiss / meshLookup (a read follows the run
//     to a peer that has it; FedLookup is the same walk for the CQ
//     engine), scatterList (ask every peer for the newest offset+limit
//     runs at once, keep each run's newest copy, name the peers that
//     did not answer), broadcast (tell every peer). Trusted requests
//     get no policy at all: that is the loop guard.
//   - BroadcastCQEvents pushes locally-emitted CQ events to every
//     other peer so a long-poll watcher on any peer sees them.
//   - rateLimiter is the per-tenant token bucket the pipeline's admit
//     stage enforces (429 + Retry-After on breach). Intra-mesh traffic
//     bypasses it: fan-out writes and repair pulls are the system
//     talking to itself, and throttling them would amplify client
//     load R-fold.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// archiveTarget adapts an Archive to the mesh.Target surface.
type archiveTarget struct{ a *Archive }

// MeshTarget returns the archive's anti-entropy surface.
func (a *Archive) MeshTarget() mesh.Target { return archiveTarget{a} }

func (t archiveTarget) Entries() []mesh.Entry {
	t.a.mu.Lock()
	defer t.a.mu.Unlock()
	out := make([]mesh.Entry, 0, 64)
	for tenant, runs := range t.a.runs {
		for id := range runs {
			out = append(out, mesh.Entry{Tenant: tenant, ID: id, Edges: t.a.hasEdges(tenant, id)})
		}
	}
	return out
}

func (t archiveTarget) Have(tenant, id string) bool {
	_, err := t.a.Tenant(tenant).Resolve(id)
	return err == nil
}

func (t archiveTarget) Pull(tenant string, payload []byte) error {
	tenant, err := NormalizeTenant(tenant)
	if err != nil {
		return err
	}
	_, _, err = t.a.Tenant(tenant).IngestBytes(payload)
	return err
}

func (t archiveTarget) HaveEdges(tenant, id string) bool {
	return t.a.hasEdges(tenant, id)
}

func (t archiveTarget) PullEdges(tenant, id string, jsonl []byte) error {
	tenant, err := NormalizeTenant(tenant)
	if err != nil {
		return err
	}
	_, _, err = t.a.Tenant(tenant).PutEdges(id, jsonl)
	return err
}

// trust reports whether a request is trusted intra-mesh traffic and, if
// so, whether it is an anti-entropy pull. Under a mesh started with a
// shared secret (-mesh-secret), a bare X-Cham-Mesh header is not enough
// — the matching key must ride along, so external clients cannot claim
// intra-mesh trust. Without a secret (or without a mesh at all) the
// header is honored cooperatively; see docs/STORE.md, "Trust model".
func (s *server) trust(r *http.Request) (trusted, repair bool) {
	trusted = s.node.Authorized(r)
	return trusted, trusted && mesh.Repair(r)
}

// primary reports whether this peer evaluates continuous queries for a
// run: the run's first owner, or the only peer there is.
func (s *server) primary(id string) bool { return s.node == nil || s.node.IsPrimary(id) }

// federate wraps a route's local handler in its federation policy. A
// peer outside any mesh, a route with no policy, and — the loop guard —
// a trusted intra-mesh request all go straight to the handler.
func (s *server) federate(rt *route, q *request) (any, error) {
	if s.node == nil || rt.fed == nil || q.trusted {
		return rt.handle(s, q)
	}
	return rt.fed(s, rt, q)
}

// tally accumulates the answers of the peers a write was offered to.
type tally struct {
	first   *reply // first successful answer, relayed to the client; nil: nobody stored it
	quota   bool   // some peer refused the write on quota
	failed  bool   // some peer was unreachable or answered unexpectedly
	lastErr error  // the last refusal or failure
}

// note records one peer's answer. A miss is not a failure: that peer
// simply does not hold the run.
func (t *tally) note(v any, err error) {
	switch code := statusOf(err); {
	case err == nil:
		rep := asReply(v)
		if t.first == nil {
			t.first = &rep
		} else if rep.status == http.StatusCreated {
			t.first.status = rep.status // new to any replica is new to the client
		}
	case code == http.StatusNotFound:
	case code == http.StatusTooManyRequests:
		t.quota, t.lastErr = true, err
	default:
		t.failed, t.lastErr = true, err
	}
}

// offer applies a write on each peer in turn — this one through the
// local handler, the others by forwarding q.body to path — and tallies
// the outcomes. A local rejection other than a miss or a full quota
// aborts: the request itself is bad.
func (s *server) offer(rt *route, q *request, peers []string, path, ctype string, t *tally) error {
	for _, peer := range peers {
		if peer != s.node.Self() {
			t.note(s.forward(peer, q, path, ctype))
			continue
		}
		v, err := rt.handle(s, q)
		if code := statusOf(err); err != nil && code != http.StatusNotFound && code != http.StatusTooManyRequests {
			return err
		}
		t.note(v, err)
	}
	return nil
}

// forward replays a write on one peer and returns its answer as a
// reply, or its refusal as an error carrying the peer's status.
func (s *server) forward(peer string, q *request, path, ctype string) (any, error) {
	resp, err := s.node.Do(mesh.Call{Method: q.r.Method, Peer: peer, Path: path, Tenant: q.tenant,
		Header: http.Header{"Content-Type": {ctype}}, Body: q.body, Lease: q.lease})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Sized once from the owner's Content-Length; a reply over the cap
	// is cut there, and a short one relayed as it came.
	const maxForwardReply = 1 << 20
	body, _ := readReply(io.LimitReader(resp.Body, maxForwardReply), min(resp.ContentLength, maxForwardReply), nil)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, failf(resp.StatusCode, "%s: %s", peer, bytes.TrimSpace(body))
	case resp.StatusCode >= 300:
		return nil, failf(resp.StatusCode, "%s: %s: %s", peer, resp.Status, bytes.TrimSpace(body))
	}
	return relay(resp, body), nil
}

// relayedHeaders survive from a peer's answer into this peer's reply;
// proxiedHeaders ride a proxied read to the peer.
var (
	relayedHeaders = []string{"Content-Type", "Content-Encoding", "ETag", "Content-Length",
		"X-Raw-Bytes", "X-Stored-Bytes", "Location"}
	proxiedHeaders = []string{"Accept", "Accept-Encoding", "If-None-Match"}
)

func pick(from http.Header, names []string) http.Header {
	out := http.Header{}
	for _, h := range names {
		if v := from.Get(h); v != "" {
			out.Set(h, v)
		}
	}
	return out
}

// relay turns a peer's response into this peer's reply.
func relay(resp *http.Response, body any) reply {
	return reply{status: resp.StatusCode, header: pick(resp.Header, relayedHeaders), body: body}
}

// replicateRun is the policy of PUT /runs: the payload's content address
// names R owners, and the canonical bytes go to each. A dead remote
// owner is tolerated by ingesting locally as a fallback replica — the
// anti-entropy sweep moves the bytes onto the ring later — so a write
// succeeds as long as any peer can hold it.
func (s *server) replicateRun(rt *route, q *request) (any, error) {
	if err := q.parse(s.a.Tenant(q.tenant)); err != nil {
		return nil, err
	}
	s.mFanouts.Inc()
	q.body = q.run.canon
	var t tally
	if err := s.offer(rt, q, s.node.Owners(q.run.id), "/runs", "application/octet-stream", &t); err != nil {
		return nil, err
	}
	if t.first == nil {
		if t.quota && !t.failed {
			return nil, t.lastErr
		}
		// Every owner is unreachable or full: last resort is this peer.
		v, err := rt.handle(s, q)
		if err != nil {
			return nil, failf(statusOf(err), "replicate %s: %v (owners: %v)", q.run.id[:12], err, t.lastErr)
		}
		return v, nil
	}
	return *t.first, nil
}

// replicateEdges is the policy of PUT /runs/{id}/edges: the sidecar
// lands on every peer that holds the run (its owners, plus any off-ring
// fallback replica), so it is offered to all of them — this peer first —
// and a push through a non-owner succeeds. Owners that currently lack
// the run converge via the anti-entropy sweep, which replicates
// sidecars alongside runs.
func (s *server) replicateEdges(rt *route, q *request) (any, error) {
	s.mFanouts.Inc()
	// Validate once at the edge so a malformed sidecar fails 400
	// regardless of where the run lives.
	if _, err := obs.ReadEdges(bytes.NewReader(q.body)); err != nil {
		return nil, failf(http.StatusBadRequest, "store: edges: %v", err)
	}
	var t tally
	everyone := append([]string{s.node.Self()}, s.node.Others()...)
	if err := s.offer(rt, q, everyone, q.r.URL.Path, "application/x-ndjson", &t); err != nil {
		return nil, err
	}
	id := q.r.PathValue("id")
	switch {
	case t.first != nil:
		return *t.first, nil
	case t.lastErr != nil:
		return nil, failf(http.StatusBadGateway, "edges %s: no peer stored the sidecar: %v", id, t.lastErr)
	}
	return nil, fmt.Errorf("store: run %q %w", id, ErrNotFound)
}

// firstAnswer puts one read to the peers that may hold a run and
// returns the first definitive response: a peer that is down, failing
// (5xx), or lacks the run (404) passes the question on, and nil means
// nobody answered. Owners are asked first (minus self), then every
// other peer — a fallback replica ingested while its owner was down
// lives off-ring until anti-entropy converges, so misses must scatter
// wide, not give up at R peers. The caller closes the body.
func firstAnswer(node *mesh.Node, id string, call mesh.Call) *http.Response {
	asked := map[string]bool{node.Self(): true}
	for _, peer := range append(node.Owners(id), node.Others()...) {
		if asked[peer] {
			continue
		}
		asked[peer] = true
		call.Peer = peer
		resp, err := node.Do(call)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
			resp.Body.Close()
			continue
		}
		return resp
	}
	return nil
}

// proxyOnMiss is the policy of the single-run reads: a peer holding the
// run answers directly; a miss is put to the peers that may hold it and
// their answer — bytes, ETag, conditional semantics — streamed back. The
// reply's body is the peer's: write closes it once relayed, and the
// pipeline closes it if the deadline drops the reply.
func (s *server) proxyOnMiss(rt *route, q *request) (any, error) {
	v, err := rt.handle(s, q)
	if !errors.Is(err, ErrNotFound) {
		return v, err
	}
	resp := firstAnswer(s.node, q.r.PathValue("id"), mesh.Call{
		Path: q.r.URL.RequestURI(), Tenant: q.tenant, Header: pick(q.r.Header, proxiedHeaders)})
	if resp == nil {
		return nil, err
	}
	s.mProxied.Inc()
	return relay(resp, resp.Body), nil
}

// FedLookup builds the cq.Lookup a federated engine uses to resolve
// golden runs — and the diff endpoint uses to resolve either side: the
// local archive first, then the peers that may hold the run (node nil
// means local-only). A run fetched from a peer is decoded but not
// ingested — resolution must not mutate placement.
func FedLookup(a *Archive, node *mesh.Node) cq.Lookup {
	return func(tenant, id string) (*trace.File, string, error) {
		f, run, err := a.Tenant(tenant).Get(id)
		if err == nil {
			return f, run.ID, nil
		}
		if node == nil {
			return nil, "", err
		}
		resp := firstAnswer(node, id, mesh.Call{Path: "/runs/" + id, Tenant: tenant, Kind: mesh.ForwardRepair})
		if resp == nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("store: run %s from %s: %s", id, resp.Request.URL.Host, resp.Status)
		}
		if f, err = trace.ReadAny(resp.Body); err != nil {
			return nil, "", fmt.Errorf("store: run %s from %s: %w", id, resp.Request.URL.Host, err)
		}
		_, cid, err := Encode(f)
		return f, cid, err
	}
}

// meshLookup is the policy of GET /runs/{a}/diff/{b}: each side
// resolves wherever it lives — two federated runs need not be
// co-located on any single peer, so a strictly-local lookup would 404
// runs the mesh holds.
func (s *server) meshLookup(rt *route, q *request) (any, error) {
	q.lookup = FedLookup(s.a, s.node)
	return rt.handle(s, q)
}

// meshList is GET /runs as a trusted peer answers an edge
// (scatterList). The first round carries the peer's window, its newest
// offset+limit matches, and one partSum for each ring partition it holds
// matches in: the edge needs no other record, and no ID, to count the
// total. A second round, asked with parts=, carries only the IDs of the
// peer's matches in the partitions named.
type meshList struct {
	Runs  []*Run    `json:"runs,omitempty"`
	Parts []partSum `json:"parts,omitempty"`
	IDs   []string  `json:"ids,omitempty"`
}

// partSum is a holder's account of its matches in one ring partition
// (mesh.Node.Partition): how many there are, and the hex SHA-256 of
// their IDs in sorted order, each ended by a newline. Holders whose sums
// agree hold one set, which the edge counts once without seeing it. The
// hash resists collisions on purpose: a tenant chooses its payloads, so
// a linear one, such as the XOR of the IDs, could be forged to agree.
type partSum struct {
	Part  int    `json:"part"`
	Count int    `json:"count"`
	Sum   string `json:"sum"`
}

// window is how many of the newest matches a page of q is cut from:
// Offset+Limit, saturated because Offset is the client's, or 0 (all of
// them) when q has no limit.
func (q Query) window() int {
	if q.Limit == 0 {
		return 0
	}
	return q.Offset + min(q.Limit, math.MaxInt-q.Offset)
}

// meshAnswer is a holder's answer to an edge's listing: the first round
// when parts is empty, else the IDs of its matches in the
// comma-separated partitions parts names.
func meshAnswer(v TenantView, part func(string) int, q Query, parts string) (*meshList, error) {
	if parts == "" {
		return firstRound(v.match(q), part, q), nil
	}
	var want []int
	for _, f := range strings.Split(parts, ",") {
		p, err := strconv.Atoi(f)
		if err != nil || p < 0 {
			return nil, failf(http.StatusBadRequest, "parts: %q", parts)
		}
		want = append(want, p)
	}
	return secondRound(v.match(q), part, want), nil
}

// firstRound is a holder's first answer to q from its matches: its
// window, newest first, and the sums of all of them, partition by
// partition. It reorders matched.
func firstRound(matched []*Run, part func(string) int, q Query) *meshList {
	top, _ := Query{Limit: q.window()}.page(matched)
	top = slices.Clone(top) // partSums reorders matched
	return &meshList{Runs: top, Parts: partSums(matched, part)}
}

// secondRound is a holder's answer to a recount from its matches: the
// IDs of those in the partitions want names.
func secondRound(matched []*Run, part func(string) int, want []int) *meshList {
	ans := &meshList{}
	for _, r := range matched {
		if slices.Contains(want, part(r.ID)) {
			ans.IDs = append(ans.IDs, r.ID)
		}
	}
	return ans
}

// partSums accounts for runs partition by partition, in partition
// order. It sorts runs by ID, so each partition's IDs reach its hash in
// order without a sort of their own.
func partSums(runs []*Run, part func(string) int) []partSum {
	slices.SortFunc(runs, func(x, y *Run) int { return strings.Compare(x.ID, y.ID) })
	var sums []partSum
	var hashes []hash.Hash
	line := make([]byte, 0, 2*sha256.Size+1)
	for _, r := range runs {
		p, i := part(r.ID), 0
		for i < len(sums) && sums[i].Part != p {
			i++
		}
		if i == len(sums) {
			sums = append(sums, partSum{Part: p})
			hashes = append(hashes, sha256.New())
		}
		sums[i].Count++
		line = append(append(line[:0], r.ID...), '\n')
		hashes[i].Write(line)
	}
	for i, h := range hashes {
		sums[i].Sum = hex.EncodeToString(h.Sum(line[:0]))
	}
	slices.SortFunc(sums, func(x, y partSum) int { return x.Part - y.Part })
	return sums
}

// scatterList is the policy of GET /runs: the page is cut from the whole
// mesh's view of a tenant's runs, and looks the same from every edge.
// The window is pushed down: every other peer is asked at once for its
// newest offset+limit matches and its partition sums, and mergeList
// joins those answers with this peer's own. Partitions whose holders
// disagree are recounted in one second fan-out, which asks only their
// holders, and only for those partitions' IDs. A peer that does not
// answer is named in Partial rather than silently dropped; at R>=2 every
// run is still visible through a surviving owner.
func (s *server) scatterList(rt *route, q *request) (any, error) {
	query, err := listQuery(q)
	if err != nil {
		return nil, err
	}
	v, part := s.a.Tenant(q.tenant), s.node.Partition
	params := q.r.URL.Query() // re-encoded below, never spliced
	params.Del("offset")
	params.Set("limit", strconv.Itoa(query.window()))
	peers := s.node.Others()
	answers := make([]*meshList, 1+len(peers))
	call := mesh.Call{Path: "/runs?" + params.Encode(), Tenant: q.tenant}
	fanout(s.node, peers, call, func(i int, resp *http.Response) {
		answers[1+i] = readList(resp.StatusCode, resp.Body, resp.ContentLength)
	})
	answers[0] = firstRound(v.match(query), part, query)

	recount := func(parts []int, ask []bool) []*meshList {
		got := make([]*meshList, len(ask))
		if ask[0] {
			got[0] = secondRound(v.match(query), part, parts)
		}
		var who []string
		var slot []int
		for i, p := range peers {
			if ask[1+i] {
				who, slot = append(who, p), append(slot, 1+i)
			}
		}
		list := make([]string, len(parts))
		for i, p := range parts {
			list[i] = strconv.Itoa(p)
		}
		params.Del("limit")
		params.Set("parts", strings.Join(list, ","))
		call.Path = "/runs?" + params.Encode()
		fanout(s.node, who, call, func(j int, resp *http.Response) {
			got[slot[j]] = readList(resp.StatusCode, resp.Body, resp.ContentLength)
		})
		return got
	}
	lr, recounted := mergeList(query, part, peers, answers, recount)
	s.mRecounts.Add(uint64(recounted))
	return lr, nil
}

// readList decodes a peer's answer to a listing, a body of the length
// it claimed (-1: unknown); nil means it gave none the edge can use.
func readList(status int, body io.Reader, length int64) *meshList {
	var ml meshList
	if status != http.StatusOK || readJSON(body, length, &ml) != nil {
		return nil
	}
	ml.Runs = slices.DeleteFunc(ml.Runs, func(r *Run) bool { return r == nil })
	return &ml
}

// mergeList cuts query's page from the holders' first-round answers
// (answers[0] is this peer's own, answers[1+i] peers[i]'s, nil if it
// gave none) and returns it with the number of partitions the second
// round recounted.
//
// The page: each run shows the record of its holder with the newest
// Ingested stamp, ties going to this peer, then to peers in order.
// Newest copy wins is what makes the push-down exact. If run x is in the
// true top N = offset+limit and its newest copy is on holder h, every
// run h ranks above x also ranks above x in the merge (its newest stamp
// is no older than its stamp on h), so fewer than N do, and x is in h's
// top N with its winning stamp. A stamp the merge misses, a copy
// outside its holder's top N, can only rank a run lower, never into the
// window.
//
// The total: every ID falls in one partition. Where every holder that
// reports a partition reports the same sum, they hold one set, and its
// count is exact. Where they differ (a holder missed a write, or keeps
// an off-ring fallback copy a sweep has not moved home), recount asks
// each holder marked in ask for its IDs in those partitions, and each
// counts the union. A peer that fails either round is named in Partial;
// a partition a holder could not recount counts at least what that
// holder reported. Whatever the answers say, the total is at least the
// number of runs the pages name.
func mergeList(query Query, part func(string) int, peers []string, answers []*meshList,
	recount func(parts []int, ask []bool) []*meshList) (ListResponse, int) {
	type account struct {
		count   int
		sum     string
		agree   bool
		holders []int
	}
	accounts := map[int]*account{}
	for h, ans := range answers {
		if ans == nil {
			continue
		}
		for _, ps := range ans.Parts {
			a := accounts[ps.Part]
			switch {
			case a == nil:
				a = &account{count: ps.Count, sum: ps.Sum, agree: ps.Count >= 0}
				accounts[ps.Part] = a
			case ps.Count != a.count || ps.Sum != a.sum:
				a.agree = false
			}
			a.holders = append(a.holders, h)
		}
	}
	total := 0
	var disputed []int
	ask := make([]bool, len(answers))
	for p, a := range accounts {
		if a.agree {
			total = satAdd(total, a.count)
			continue
		}
		disputed = append(disputed, p)
		for _, h := range a.holders {
			ask[h] = true
		}
	}
	failed := make([]bool, len(answers))
	for h, ans := range answers {
		failed[h] = ans == nil
	}
	if len(disputed) > 0 {
		slices.Sort(disputed) // the order the second round names them in
		got := recount(disputed, ask)
		floor := make(map[int]int, len(disputed)) // the most a holder that failed the recount reported
		union := map[string]int{}                 // recounted ID -> its partition
		for h, asked := range ask {
			if !asked {
				continue
			}
			if h >= len(got) || got[h] == nil {
				failed[h] = true
				for _, ps := range answers[h].Parts {
					if slices.Contains(disputed, ps.Part) {
						floor[ps.Part] = max(floor[ps.Part], ps.Count)
					}
				}
				continue
			}
			for _, id := range got[h].IDs {
				if p := part(id); slices.Contains(disputed, p) {
					union[id] = p
				}
			}
		}
		counts := make(map[int]int, len(disputed))
		for _, p := range union {
			counts[p]++
		}
		for _, p := range disputed {
			total = satAdd(total, max(floor[p], counts[p]))
		}
	}

	var window []*Run
	for _, ans := range answers {
		if ans != nil {
			window = append(window, ans.Runs...)
		}
	}
	slices.SortStableFunc(window, func(x, y *Run) int {
		if c := strings.Compare(x.ID, y.ID); c != 0 {
			return c
		}
		return y.Ingested.Compare(x.Ingested)
	})
	window = slices.CompactFunc(window, func(x, y *Run) bool { return x.ID == y.ID })
	total = max(total, len(window))
	var page []*Run
	if query.Offset < total { // an offset past the end needs no sort
		page, _ = query.page(window)
	}
	resp := listPage(query, page, total)
	for i, p := range peers {
		if failed[1+i] {
			resp.Partial = append(resp.Partial, p)
		}
	}
	return resp, len(disputed)
}

// satAdd adds two counts, saturating rather than wrapping.
func satAdd(a, b int) int {
	if b > 0 && a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// broadcast is the policy of the CQ writes: apply locally, then tell
// every peer what was stored (see tell for the delivery guarantees).
func (s *server) broadcast(rt *route, q *request) (any, error) {
	v, err := rt.handle(s, q)
	if err != nil {
		return nil, err
	}
	var body []byte
	if stored := asReply(v).body; stored != nil {
		body, _ = json.Marshal(stored)
	}
	tell(s.node, mesh.Call{Method: q.r.Method, Path: q.r.URL.Path, Tenant: q.tenant, Body: body})
	return v, nil
}

// BroadcastCQEvents returns an engine OnEvent hook that forwards each
// locally-emitted event to every other peer (POST /cq/events), so a
// watcher long-polling any peer's feed sees gates fired anywhere in the
// mesh. Receivers dedup by event ID.
func BroadcastCQEvents(node *mesh.Node) func(cq.Event) {
	if node == nil {
		return nil
	}
	return func(ev cq.Event) {
		if body, err := json.Marshal(ev); err == nil {
			tell(node, mesh.Call{Method: http.MethodPost, Path: "/cq/events", Tenant: ev.Tenant, Body: body})
		}
	}
}

// tell sends one JSON call to every other peer concurrently and waits
// for all of them. Delivery is best-effort by design: each call rides
// the short-timeout broadcast client, so a partitioned peer delays the
// caller (a registration, or the ingest that fired a gate) by at most
// that timeout, and failures are dropped — anti-entropy re-syncs
// registrations, and the feed is observability, not a ledger.
func tell(node *mesh.Node, call mesh.Call) {
	call.BestEffort = true
	call.Header = http.Header{"Content-Type": {"application/json"}}
	fanout(node, node.Others(), call, nil)
}

// fanout sends call to every peer in peers concurrently and returns once
// each has answered or failed. read, when non-nil, gets peer i's
// response on that call's goroutine, so it may write only to slot i of
// whatever it fills; an unreachable peer is never read.
func fanout(node *mesh.Node, peers []string, call mesh.Call, read func(i int, resp *http.Response)) {
	var wg sync.WaitGroup
	for i, peer := range peers {
		call.Peer = peer
		wg.Add(1)
		go func(i int, call mesh.Call) {
			defer wg.Done()
			resp, err := node.Do(call)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if read != nil {
				read(i, resp)
			}
		}(i, call)
	}
	wg.Wait()
}

// rateLimiter is a per-tenant token bucket. The zero rate disables
// limiting. Tenant names arrive from outside, so once the map has
// doubled since the last sweep, allow drops every bucket that has
// refilled: a full bucket is the same as none.
type rateLimiter struct {
	clk     clock.Clock
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket
	sweepAt int // map size that triggers the next sweep
}

const minSweep = 64 // bucket count below which the limiter never sweeps

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(clk clock.Clock, rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = max(rate, 1)
	}
	return &rateLimiter{clk: clk, rate: rate, burst: b, buckets: make(map[string]*tokenBucket), sweepAt: minSweep}
}

// allow spends one token from the tenant's bucket. When the bucket is
// dry it returns false and how long until a token accrues (the
// Retry-After value).
func (rl *rateLimiter) allow(tenant string) (bool, time.Duration) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.clk.Now()
	if len(rl.buckets) >= rl.sweepAt {
		for t, b := range rl.buckets {
			if b.tokens+now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
				delete(rl.buckets, t)
			}
		}
		rl.sweepAt = max(minSweep, 2*len(rl.buckets))
	}
	b := rl.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.buckets[tenant] = b
	}
	b.tokens = min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, max(time.Second, time.Duration((1-b.tokens)/rl.rate*float64(time.Second)))
}
