package ranklist

import "encoding/binary"

// Table numbers the distinct rank lists of one trace: each id is a list
// in Lists, its count of ranks in [0, P) in Width, and in Row a number
// the reader keeps per list (-1 until it sets one). A leaf's list (ID)
// is in normal form, as every list a trace holds is. A derived list
// (Shift) is as List.Shift builds it: disjoint one-piece descriptors,
// not always in normal form.
//
// A leaf's list is found by its identity first — trace.Walk shares one
// list among the leaves whose encodings are equal, and a decoded tree
// keeps that sharing — then by its descriptors, which is how equal
// lists of a tree the tracer built meet.
type Table struct {
	Lists   []List
	Width   []int
	Row     []int32
	byRef   map[listRef]int32
	byDesc  map[string]int32
	derived map[derivedKey]int32
	key     []byte // scratch of byDesc lookups
}

// listRef is a list's identity: its descriptor slice.
type listRef struct {
	first *RL
	n     int
}

// derivedKey names a list an end-point derives: list from shifted by
// off, or with from < 0, the one rank off.
type derivedKey struct {
	from int32
	off  int
}

// ID returns l's id, or -1 when l holds no descriptor.
func (t *Table) ID(l List, p int) int32 {
	d := l.Descriptors()
	if len(d) == 0 {
		return -1
	}
	ref := listRef{&d[0], len(d)}
	if id, ok := t.byRef[ref]; ok {
		return id
	}
	id := t.byDescriptors(l, p)
	if t.byRef == nil {
		t.byRef = map[listRef]int32{}
	}
	t.byRef[ref] = id
	return id
}

// byDescriptors returns the id of the list holding l's descriptors,
// numbering l if none does.
func (t *Table) byDescriptors(l List, p int) int32 {
	t.key = t.key[:0]
	for _, r := range l.Descriptors() {
		t.key = binary.AppendVarint(t.key, int64(r.Start))
		t.key = binary.AppendUvarint(t.key, uint64(len(r.Dims)))
		for _, d := range r.Dims {
			t.key = binary.AppendVarint(t.key, int64(d.Iters))
			t.key = binary.AppendVarint(t.key, int64(d.Stride))
		}
	}
	if id, ok := t.byDesc[string(t.key)]; ok {
		return id
	}
	if t.byDesc == nil {
		t.byDesc = map[string]int32{}
	}
	id := int32(len(t.Lists))
	t.byDesc[string(t.key)] = id
	t.Lists = append(t.Lists, l)
	t.Width = append(t.Width, l.SizeIn(p))
	t.Row = append(t.Row, -1)
	return id
}

// Shift returns the id of list id's ranks moved by off around the ring
// of p ranks (List.Shift).
func (t *Table) Shift(id int32, off, p int) int32 {
	if off == 0 {
		return id
	}
	return t.derive(derivedKey{id, off}, func() List { return t.Lists[id].Shift(off, p) }, p)
}

// Single returns the id of the list of the one rank r.
func (t *Table) Single(r, p int) int32 {
	return t.derive(derivedKey{-1, r}, func() List { return SingleRank(r) }, p)
}

func (t *Table) derive(k derivedKey, build func() List, p int) int32 {
	if id, ok := t.derived[k]; ok {
		return id
	}
	if t.derived == nil {
		t.derived = map[derivedKey]int32{}
	}
	id := t.byDescriptors(build(), p)
	t.derived[k] = id
	return id
}
