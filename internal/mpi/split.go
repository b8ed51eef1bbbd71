package mpi

import "sort"

// splitEntry is one rank's (color, key) contribution to Split's root
// gather. Package-level (not function-local) so the wire codec can
// carry it across a network transport.
type splitEntry struct{ Color, Key, Rank int }

// Split partitions the communicator by color (as MPI_Comm_split): ranks
// sharing a color form a new communicator, ordered by (key, parent
// rank). Ranks passing a negative color (MPI_UNDEFINED) receive nil. The
// call is collective over the parent communicator.
func (c *Comm) Split(color, key int) *Comm {
	seq := c.nextSeq()
	gathered := c.treeGather(0, collTag(c.id, seq, 0), 12,
		splitEntry{Color: color, Key: key, Rank: c.self})

	// The root computes the group layout and broadcasts it.
	var layout map[int][]int
	if c.self == 0 {
		byColor := map[int][]splitEntry{}
		for _, g := range gathered {
			e := g.(splitEntry)
			if e.Color < 0 {
				continue
			}
			byColor[e.Color] = append(byColor[e.Color], e)
		}
		layout = make(map[int][]int, len(byColor))
		for col, es := range byColor {
			sort.Slice(es, func(i, j int) bool {
				if es[i].Key != es[j].Key {
					return es[i].Key < es[j].Key
				}
				return es[i].Rank < es[j].Rank
			})
			group := make([]int, len(es))
			for i, e := range es {
				group[i] = c.worldRank(e.Rank)
			}
			layout[col] = group
		}
	}
	layout = c.treeBcastObj(0, collTag(c.id, seq, 1), 16*len(c.group), layout).(map[int][]int)

	// One CommID per color, in sorted color order, so every member maps
	// its color to the same identity.
	var base CommID
	if c.self == 0 {
		base = c.p.rt.tr.allocComm(len(layout))
	}
	base = CommID(c.treeBcastU64(0, collTag(c.id, seq, 2), uint64(base)))
	if color < 0 {
		return nil
	}
	colors := make([]int, 0, len(layout))
	for col := range layout {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	for i, col := range colors {
		if col != color {
			continue
		}
		group := layout[col]
		world := c.worldRank(c.self)
		for pos, r := range group {
			if r == world {
				return &Comm{p: c.p, id: base + CommID(i), group: group, self: pos}
			}
		}
	}
	return nil
}
