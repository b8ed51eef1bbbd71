package store

// Causal-edge sidecars: a run's causal edge stream (the JSONL format
// WriteEdges produces) can be attached to its archived trace, so the
// idle-wave detector runs server-side against the archive instead of
// requiring the original -edges-out file. Sidecars live next to the
// segments in the run's tenant tree:
//
//	edges/ab/abcd....jsonl             default tenant
//	tenants/<t>/edges/ab/abcd....jsonl everyone else
//
// A sidecar is plain data about a run, not part of its identity — the
// content address still covers only the canonical trace payload, and
// re-pushing edges simply replaces the sidecar. Orphaned sidecars
// (their run deleted) are reclaimed by Compact alongside orphaned
// segments.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"chameleon/internal/atomicfile"
	"chameleon/internal/obs"
	"chameleon/internal/wave"
)

func (a *Archive) edgesPath(tenant, id string) string {
	return filepath.Join(a.tenantRoot(tenant), "edges", id[:2], id+".jsonl")
}

// hasEdges reports whether a sidecar exists for the (full) run ID.
func (a *Archive) hasEdges(tenant, id string) bool {
	_, err := os.Stat(a.edgesPath(tenant, id))
	return err == nil
}

// PutEdges attaches a causal edge stream (JSONL bytes) to an archived
// run, replacing any previous sidecar. The payload must parse; the
// number of edges is returned. The run may be named by unique prefix.
func (v TenantView) PutEdges(id string, jsonl []byte) (int, Run, error) {
	run, err := v.Resolve(id)
	if err != nil {
		return 0, Run{}, err
	}
	edges, err := obs.ReadEdges(bytes.NewReader(jsonl))
	if err != nil {
		return 0, Run{}, fmt.Errorf("store: edges for %s: %w", run.ID[:12], err)
	}
	v.a.mu.Lock()
	defer v.a.mu.Unlock()
	if _, err := atomicfile.Write(v.a.tmpDir(), v.a.edgesPath(v.tenant, run.ID), atomicfile.Bytes(jsonl)); err != nil {
		return 0, Run{}, fmt.Errorf("store: edges: %w", err)
	}
	return len(edges), run, nil
}

// EdgesPayload returns a run's stored edge stream verbatim.
func (v TenantView) EdgesPayload(id string) ([]byte, Run, error) {
	run, err := v.Resolve(id)
	if err != nil {
		return nil, Run{}, err
	}
	b, err := os.ReadFile(v.a.edgesPath(v.tenant, run.ID))
	if os.IsNotExist(err) {
		return nil, Run{}, fmt.Errorf("store: edge sidecar for run %s %w", run.ID[:12], ErrNotFound)
	}
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: edges: %w", err)
	}
	return b, run, nil
}

// Edges decodes a run's edge sidecar.
func (v TenantView) Edges(id string) ([]obs.Edge, Run, error) {
	b, run, err := v.EdgesPayload(id)
	if err != nil {
		return nil, Run{}, err
	}
	edges, err := obs.ReadEdges(bytes.NewReader(b))
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: edges for %s: %w", run.ID[:12], err)
	}
	return edges, run, nil
}

// Waves runs the idle-wave detector over a run's edge sidecar. A
// positive cols interprets ranks as a row-major cols-wide grid
// (Manhattan rank distance) instead of a 1-D chain.
func (v TenantView) Waves(id string, cols int) (*wave.Report, Run, error) {
	edges, run, err := v.Edges(id)
	if err != nil {
		return nil, Run{}, err
	}
	rep, err := wave.Detect(edges, wave.Options{P: run.P, Cols: cols, Reg: v.a.opts.Reg})
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: waves for %s: %w", run.ID[:12], err)
	}
	return rep, run, nil
}
