// Federated-archive e2e: three genuine chamd processes form a
// consistent-hash mesh (R=2) over real sockets. The acceptance
// scenario is peer death — push runs through peer A, SIGKILL peer B,
// and every run must still read byte-identical from the survivors;
// restart B and one anti-entropy sweep must restore its share of the
// ring, including its persisted continuous-query registrations.
package chameleon_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/store"
	"chameleon/internal/trace"
)

// spawnFedPeer starts one federated peer: the shipped `chamd -peers`
// body (archive + mesh + CQ engine + sweep wiring + HTTP server) in a
// child process (spawnTool), serving until killed.
func spawnFedPeer(t *testing.T, dir, self, peers string, extra ...string) *exec.Cmd {
	t.Helper()
	cmd, _ := spawnTool(t, "chamd", append([]string{"-dir", dir, "-addr", strings.TrimPrefix(self, "http://"),
		"-self", self, "-peers", peers, "-replicas", "2"}, extra...)...)
	return cmd
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond) // a child process binding its listener: only polling sees it
	}
	t.Fatalf("peer %s never became healthy", url)
}

// fedHTTP issues one request with optional mesh-forward (strictly
// local) and tenant headers.
func fedHTTP(t *testing.T, method, url string, body []byte, local bool) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		req.Header.Set(mesh.HeaderForward, mesh.ForwardFanout)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// variantOf decodes a fresh copy of a canonical trace and perturbs one
// leaf's timing histogram: a new content address, same structure.
func variantOf(t *testing.T, canon []byte, i int64) *trace.File {
	t.Helper()
	f, err := trace.ReadAny(bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	var leaf func(ns []*trace.Node) *trace.Node
	leaf = func(ns []*trace.Node) *trace.Node {
		for _, n := range ns {
			if n.Delta != nil {
				return n
			}
			if got := leaf(n.Body); got != nil {
				return got
			}
		}
		return nil
	}
	l := leaf(f.Nodes)
	if l == nil {
		t.Fatal("trace has no leaves")
	}
	l.Delta.Add(10_000 + i)
	return f
}

// TestFedPeerDeathAndAntiEntropyRecovery runs the scenario twice: with
// recovery converged by an explicit POST /mesh/sweep on each peer, and
// with no trigger at all — only chamd's own maintenance loop, which
// sweeps every -compact-every.
func TestFedPeerDeathAndAntiEntropyRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Run("triggered", func(t *testing.T) { t.Parallel(); fedPeerDeath(t) })
	t.Run("ticker", func(t *testing.T) { t.Parallel(); fedPeerDeath(t, "-compact-every", "200ms") })
}

// fedPeerDeath is the scenario; sweepFlags are extra chamd flags, and
// when they are given nothing triggers a sweep by hand.
func fedPeerDeath(t *testing.T, sweepFlags ...string) {

	// Reserve three ports, then start three peers on them.
	urls := make([]string, 3)
	dirs := make([]string, 3)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
		dirs[i] = t.TempDir()
	}
	peerList := strings.Join(urls, ",")
	procs := make([]*exec.Cmd, 3)
	for i := range urls {
		procs[i] = spawnFedPeer(t, dirs[i], urls[i], peerList, sweepFlags...)
	}
	for _, u := range urls {
		waitHealthy(t, u)
	}

	// Push six distinct runs through peer A: one real benchmark trace
	// plus timing-perturbed variants (new content addresses, same
	// structure).
	base := runE2E(t, e2e{Spec: benchSpec(t, "STENCIL", "A", 8)}).Out.Trace
	baseCanon, _, err := store.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	canons := map[string][]byte{}
	var ids []string
	push := func(via string, f *trace.File) string {
		t.Helper()
		canon, id, err := store.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		code, body := fedHTTP(t, http.MethodPut, via+"/runs", canon, false)
		if code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT via %s: %d: %s", via, code, body)
		}
		canons[id] = canon
		return id
	}
	ids = append(ids, push(urls[0], base))
	for i := int64(1); i < 6; i++ {
		ids = append(ids, push(urls[0], variantOf(t, baseCanon, i)))
	}

	// Arm a continuous-query gate against the first run; it fans out
	// now and must survive B's death via its persisted registration.
	if _, err := store.RegisterCQ(urls[0], cq.Spec{Name: "gate", Golden: ids[0]}); err != nil {
		t.Fatal(err)
	}

	// SIGKILL peer B mid-fleet.
	if err := procs[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[1].Wait() //nolint:errcheck — killed on purpose

	// Acceptance: every run reads byte-identical from both survivors,
	// whether the replica is local or proxied from the other survivor.
	for _, id := range ids {
		for _, u := range []string{urls[0], urls[2]} {
			code, body := fedHTTP(t, http.MethodGet, u+"/runs/"+id, nil, false)
			if code != http.StatusOK {
				t.Fatalf("run %s via %s with B dead: %d", id[:12], u, code)
			}
			if !bytes.Equal(body, canons[id]) {
				t.Fatalf("run %s via %s: not byte-identical (%d vs %d bytes)",
					id[:12], u, len(body), len(canons[id]))
			}
		}
	}

	// Writes keep landing while B is down — including edge sidecars,
	// which fan out to whichever of the run's holders are alive even
	// when the PUT arrives via a peer that does not hold the run.
	for i := int64(6); i < 9; i++ {
		ids = append(ids, push(urls[0], variantOf(t, baseCanon, i)))
	}
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")
	if err := store.PushEdges(urls[0], ids[0], sidecar, false); err != nil {
		t.Fatalf("push edges with B dead: %v", err)
	}
	for _, u := range []string{urls[0], urls[2]} {
		edges, err := store.FetchEdges(u, ids[0])
		if err != nil || len(edges) != 1 {
			t.Fatalf("edges via %s with B dead: %v (%d edges)", u, err, len(edges))
		}
	}

	// Restart B on the same port and directory; one sweep per peer
	// converges the ring (B pulls what it missed, the survivors pull
	// anything that landed off-ring while the fleet was degraded).
	procs[1] = spawnFedPeer(t, dirs[1], urls[1], peerList, sweepFlags...)
	waitHealthy(t, urls[1])
	for _, u := range []string{urls[1], urls[0], urls[2]} {
		if len(sweepFlags) > 0 {
			break // the peers' own tickers converge the ring
		}
		if _, err := store.TriggerSweep(u); err != nil {
			t.Fatalf("sweep %s: %v", u, err)
		}
	}

	// Placement is whole again: each run's R=2 owners serve it locally.
	ring, err := mesh.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The sidecar converged with its run too: every owner serves it
	// locally, whether it took the original fan-out or pulled it in a
	// sweep. Ticker-driven recovery gets a deadline to reach this state.
	whole := func() error {
		for _, id := range ids {
			for _, owner := range ring.Owners(id, 2) {
				code, body := fedHTTP(t, http.MethodGet, owner+"/runs/"+id, nil, true)
				if code != http.StatusOK {
					return fmt.Errorf("owner %s lacks run %s after recovery: %d", owner, id[:12], code)
				}
				if !bytes.Equal(body, canons[id]) {
					return fmt.Errorf("owner %s run %s: bytes diverged after repair", owner, id[:12])
				}
			}
		}
		for _, owner := range ring.Owners(ids[0], 2) {
			code, body := fedHTTP(t, http.MethodGet, owner+"/runs/"+ids[0]+"/edges", nil, true)
			if code != http.StatusOK || !bytes.Equal(body, sidecar) {
				return fmt.Errorf("owner %s lacks the edge sidecar after recovery: %d", owner, code)
			}
		}
		return nil
	}
	err = whole()
	for deadline := time.Now().Add(20 * time.Second); err != nil && len(sweepFlags) > 0 && time.Now().Before(deadline); err = whole() {
		time.Sleep(100 * time.Millisecond) // the children sweep on their own wall clocks
	}
	if err != nil {
		t.Fatal(err)
	}

	// The gate survived the crash: push a structural drift (one extra
	// call site) through peer C and catch the regression on peer A's
	// long-poll feed — wherever the primary owner is, the event
	// broadcasts fleet-wide.
	drift := variantOf(t, baseCanon, 99)
	extra := trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(0xfed)), Dest: trace.Relative(1), Tag: 3, Bytes: 64}
	drift.Nodes = append(drift.Nodes, trace.NewLeaf(extra, ranklist.FromRanks([]int{0}), 777))
	driftID := push(urls[2], drift)

	feed, err := store.FetchCQFeed(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range feed.Events {
		if ev.Run == driftID {
			found = true
			if ev.Verdict != cq.VerdictRegression {
				t.Fatalf("drifted run gated %q (%s)", ev.Verdict, ev.Reason)
			}
			if ev.Golden != ids[0] {
				t.Fatalf("gate resolved golden %q, want %s", ev.Golden, ids[0])
			}
		}
	}
	if !found {
		t.Fatalf("no gate event for the drifted run %s in A's feed: %+v", driftID[:12], feed.Events)
	}

	// And the fleet agrees on what it holds: 2 copies of every run.
	total := 0
	for _, u := range urls {
		st, err := store.FetchMeshStatus(u)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Runs
	}
	if want := 2 * len(canons); total != want {
		t.Fatalf("fleet holds %d copies of %d runs after recovery, want %d", total, len(canons), want)
	}
}
