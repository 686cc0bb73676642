package batch

import (
	"fmt"
	"sync"
)

// A hash edge's route to its consumer's channels is one counting sort: a
// histogram pass over each row's partition hash % n, prefix sums, one int32
// permutation that groups the rows by partition (stably: row order survives
// within a partition), then one exactly sized gather per column of each
// partition. A row is hashed once and copied once, whichever batch of a
// list it sits in.

// router is the scratch of one counting sort. perm holds, partition after
// partition, source-local logical row indexes; within partition k, source
// s's rows are perm[start:cuts[s*n+k]], where start is offs[k] for the
// first source and the previous source's cut after it.
type router struct {
	hashes []uint64
	part   []uint32 // each row's partition
	perm   []int32
	offs   []int // n+1: partition k is perm[offs[k]:offs[k+1]]
	pos    []int // the scatter's write position per partition
	cuts   []int
}

var routers = sync.Pool{New: func() any { return new(router) }}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// count is the counting sort's histogram and prefix sums: each row's
// partition, by hashes (one per logical row of the sources, in order), and
// where each of the n partitions starts in the permutation. It returns the
// partition that received every row, or -1.
func (r *router) count(hashes []uint64, n int) int {
	r.part = resize(r.part, len(hashes))
	r.offs = resize(r.offs, n+1)
	clear(r.offs)
	counts := r.offs[1:]
	if n&(n-1) == 0 {
		mask := uint64(n - 1)
		for i, h := range hashes {
			k := uint32(h & mask)
			r.part[i] = k
			counts[k]++
		}
	} else {
		for i, h := range hashes {
			k := uint32(h % uint64(n))
			r.part[i] = k
			counts[k]++
		}
	}
	whole := -1
	for k := 1; k <= n; k++ {
		if r.offs[k] == len(hashes) && len(hashes) > 0 {
			whole = k - 1
		}
		r.offs[k] += r.offs[k-1]
	}
	return whole
}

// place is the counting sort's scatter pass over the rows count saw, source
// after source.
func (r *router) place(srcs []*Batch, n int) {
	r.perm = resize(r.perm, len(r.part))
	r.pos = resize(r.pos, n)
	r.cuts = resize(r.cuts, len(srcs)*n)
	copy(r.pos, r.offs[:n])
	i := 0
	for s, src := range srcs {
		rows := src.NumRows()
		for j, k := range r.part[i : i+rows] {
			r.perm[r.pos[k]] = int32(j)
			r.pos[k]++
		}
		copy(r.cuts[s*n:], r.pos)
		i += rows
	}
}

// gather copies partition k's rows of srcs, placed by place, into fresh
// columns of exactly its size.
func (r *router) gather(srcs []*Batch, n, k int) *Batch {
	schema := srcs[0].Schema
	cols := make([]*Column, len(schema.Fields))
	for c, f := range schema.Fields {
		col := &Column{Type: f.Type}
		switch f.Type {
		case Int64, Date:
			col.Ints = gatherCol(r, srcs, n, k, func(b *Batch) []int64 { return b.Cols[c].Ints })
		case Float64:
			col.Floats = gatherCol(r, srcs, n, k, func(b *Batch) []float64 { return b.Cols[c].Floats })
		case String:
			col.Strings = gatherCol(r, srcs, n, k, func(b *Batch) []string { return b.Cols[c].Strings })
		case Bool:
			col.Bools = gatherCol(r, srcs, n, k, func(b *Batch) []bool { return b.Cols[c].Bools })
		}
		cols[c] = col
	}
	return &Batch{Schema: schema, Cols: cols}
}

// gatherCol is one column of partition k: each source's run of rows, in
// source order, read from the values vals picks out of it — at physical
// rows through the source's selection, when it has one.
func gatherCol[T any](r *router, srcs []*Batch, n, k int, vals func(*Batch) []T) []T {
	dst := make([]T, r.offs[k+1]-r.offs[k])
	at, start := 0, r.offs[k]
	for s, src := range srcs {
		end := r.cuts[s*n+k]
		run, vs, out := r.perm[start:end], vals(src), dst[at:at+end-start]
		if src.Sel == nil {
			for i, j := range run {
				out[i] = vs[j]
			}
		} else {
			for i, j := range run {
				out[i] = vs[src.Sel[j]]
			}
		}
		at, start = at+len(run), end
	}
	return dst
}

// Scatter routes the logical rows of srcs — source after source, row after
// row, exactly the rows Concat(srcs) holds — into n partitions by their key
// hash (HashKeys over keyIdx) mod n. Each partition's rows keep that order,
// so partition k is the batch HashPartition would cut from the
// concatenation, built without it: every row is hashed once and copied
// once. An empty partition is nil; a partition that received every row of
// a lone source without a selection is that source, uncopied. The sources
// must share a schema.
func Scatter(srcs []*Batch, keyIdx []int, n int) ([]*Batch, error) {
	total := 0
	for _, b := range srcs {
		if !b.Schema.Equal(srcs[0].Schema) {
			return nil, fmt.Errorf("batch: scatter schema mismatch: %s vs %s", b.Schema, srcs[0].Schema)
		}
		total += b.NumRows()
	}
	r := routers.Get().(*router)
	defer routers.Put(r)
	r.hashes = resize(r.hashes, total)
	at := 0
	for _, b := range srcs {
		HashKeys(r.hashes[at:at], b, keyIdx)
		at += b.NumRows()
	}
	out := make([]*Batch, n)
	if k := r.count(r.hashes, n); k >= 0 && len(srcs) == 1 && srcs[0].Sel == nil {
		out[k] = srcs[0]
		return out, nil
	}
	r.place(srcs, n)
	for k := range out {
		if r.offs[k] < r.offs[k+1] {
			out[k] = r.gather(srcs, n, k)
		}
	}
	return out, nil
}
