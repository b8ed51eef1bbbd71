package store

// The federated listing as it was before partition sums, kept as the
// oracle FuzzScatterMerge holds mergeList to. A peer answered an edge
// with its window plus Rest, the IDs of all its other matches; the edge
// merged its whole local set with the peers' pages and counted every ID
// it saw. Exact, but every page cost each peer O(archive) on the wire.

import "sort"

// refMeshList is a peer's answer under the Rest protocol.
type refMeshList struct {
	ListResponse
	Rest []string `json:"rest,omitempty"`
}

// refPage is Query.page over copied records, as it was.
func refPage(q Query, runs []Run) ([]Run, int) {
	sort.Slice(runs, func(i, j int) bool {
		if !runs[i].Ingested.Equal(runs[j].Ingested) {
			return runs[i].Ingested.After(runs[j].Ingested)
		}
		return runs[i].ID < runs[j].ID
	})
	total := len(runs)
	if q.Offset > 0 {
		if q.Offset >= len(runs) {
			return nil, total
		}
		runs = runs[q.Offset:]
	}
	if q.Limit > 0 && len(runs) > q.Limit {
		runs = runs[:q.Limit]
	}
	return runs, total
}

// refAnswer is a peer's trusted answer to q over its matches (any order;
// sorted in place): the page, and the IDs of every match off it.
func refAnswer(q Query, matched []Run) refMeshList {
	runs, total := refPage(q, matched)
	rest := make([]string, 0, total-len(runs))
	lo := min(q.Offset, total)
	for i, r := range matched {
		if i < lo || i >= lo+len(runs) {
			rest = append(rest, r.ID)
		}
	}
	return refMeshList{ListResponse: listPage(q, lendAll(runs), total), Rest: rest}
}

// lendAll points at each of runs.
func lendAll(runs []Run) []*Run {
	if runs == nil {
		return nil
	}
	out := make([]*Run, len(runs))
	for i := range runs {
		out[i] = &runs[i]
	}
	return out
}

// refMergeList cuts query's page from this peer's matches (self, any
// order) and the peers' Rest answers (nil: the peer gave none): newest
// copy wins, ties to self then to peers in order, and the total counts
// every ID any holder reported.
func refMergeList(query Query, self []Run, peers []string, answers []*refMeshList) ListResponse {
	runs := make([]Run, 0, len(self))
	at := make(map[string]int, len(self)) // ID -> index in runs; -1: known from a Rest only
	add := func(r Run) {
		switch i, ok := at[r.ID]; {
		case !ok || i < 0:
			at[r.ID] = len(runs)
			runs = append(runs, r)
		case r.Ingested.After(runs[i].Ingested):
			runs[i] = r
		}
	}
	for _, r := range self {
		add(r)
	}
	var partial []string
	for i, ans := range answers {
		if ans == nil {
			partial = append(partial, peers[i])
			continue
		}
		for _, r := range ans.Runs {
			add(*r)
		}
		for _, id := range ans.Rest {
			if _, ok := at[id]; !ok {
				at[id] = -1
			}
		}
	}
	total := len(at)
	var page []Run
	if query.Offset < total {
		page, _ = refPage(query, runs)
	}
	resp := listPage(query, lendAll(page), total)
	resp.Partial = partial
	return resp
}
