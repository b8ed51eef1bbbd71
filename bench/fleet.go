package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/store"
)

const (
	meshPeers    = 3
	meshReplicas = 2
)

// fleet is a set of chamd peers hosted in this process on real loopback
// listeners: one archive directory, one mesh node and one HTTP server
// per peer. One peer is a plain unfederated server, the baseline the
// replication overhead is priced against.
type fleet struct {
	urls     []string
	archives []*store.Archive
	servers  []*http.Server
	served   []chan struct{}
	dirs     []string
	ring     *mesh.Ring
}

// startFleet reserves every port first so each peer knows the full
// membership before any of them serves. With counters on, each peer
// reports into its own registry and exposes it at GET /metrics.
func startFleet(root string, peers int, counters bool) (*fleet, error) {
	f := &fleet{}
	var lns []net.Listener
	fail := func(err error) (*fleet, error) {
		for _, ln := range lns {
			ln.Close()
		}
		f.Close()
		return nil, err
	}
	for i := 0; i < peers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	if peers > 1 {
		ring, err := mesh.NewRing(f.urls, 0)
		if err != nil {
			return fail(err)
		}
		f.ring = ring
	}
	for i, ln := range lns {
		dir := filepath.Join(root, fmt.Sprintf("peer%d", i))
		var reg *obs.Registry
		if counters {
			reg = obs.NewRegistry()
		}
		a, err := store.Open(dir, store.Options{Reg: reg})
		if err != nil {
			return fail(err)
		}
		f.archives = append(f.archives, a)
		f.dirs = append(f.dirs, dir)
		var node *mesh.Node
		if peers > 1 {
			node, err = mesh.NewNode(mesh.Options{Self: f.urls[i], Peers: f.urls, Replicas: meshReplicas})
			if err != nil {
				return fail(err)
			}
		}
		srv := &http.Server{Handler: store.NewServer(a, store.ServerOptions{Mesh: node, Reg: reg, Metrics: counters})}
		done := make(chan struct{})
		f.servers = append(f.servers, srv)
		f.served = append(f.served, done)
		go func(ln net.Listener) {
			defer close(done)
			srv.Serve(ln) //nolint:errcheck — always ErrServerClosed after Close
		}(ln)
	}
	return f, nil
}

// Close stops every server, waits for its accept loop, and closes the
// archives. The directories stay for the caller to measure or remove.
func (f *fleet) Close() {
	for i, srv := range f.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		cancel()
		<-f.served[i]
	}
	for _, a := range f.archives {
		a.Close()
	}
	f.servers, f.archives = nil, nil
}

// owners returns the indices of the peers that must hold a run.
func (f *fleet) owners(id string) []int {
	if f.ring == nil {
		return []int{0}
	}
	var idx []int
	for _, o := range f.ring.Owners(id, meshReplicas) {
		for i, u := range f.urls {
			if u == o {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// diskBytes sums the regular files under every peer's archive directory.
func (f *fleet) diskBytes() (int64, error) {
	var total int64
	for _, dir := range f.dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// manifestBytes sums the peers' manifest files.
func (f *fleet) manifestBytes() int64 {
	var total int64
	for _, dir := range f.dirs {
		if info, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
			total += info.Size()
		}
	}
	return total
}

// counters sums every counter over the peers' GET /metrics.
func (f *fleet) counters() (map[string]uint64, error) {
	total := map[string]uint64{}
	for _, u := range f.urls {
		req, err := http.NewRequest(http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET %s/metrics: %w", u, err)
		}
		for name, v := range snap.Counters {
			total[name] += v
		}
	}
	return total, nil
}
