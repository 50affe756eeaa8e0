package quasiclique

import (
	"slices"
	"sync"
)

// orderedView relabels a graph by degeneracy (k-core) order: new id i is
// the i-th vertex removed by the iterative minimum-degree peel, so every
// vertex has at most degeneracy(G) neighbors with larger new ids. The
// candidate tree extends vertex sets with ascending ids only, which
// under this labeling means every branch vertex contributes its small
// "later" neighborhood instead of an arbitrary one — the candidate
// ordering that pruning-based quasi-clique enumeration wants (Uno-style
// orderings; see docs/ARCHITECTURE.md). Set-valued searches (coverage,
// anchored membership) run entirely in new-id space and unmap their
// answers at the boundary, so outputs are bit-identical to the unordered
// search; only the node count changes.
type orderedView struct {
	g      *Graph
	origOf []int32 // new id -> original id
	newOf  []int32 // original id -> new id

	// Recycled backing: one view is built per coverage search — per
	// evaluated attribute set — so its setup allocations matter the
	// same way the engine's do. graph backs g for pooled views; the
	// remaining fields are degeneracy-peel and relabeling scratch.
	graph     Graph
	deg, pos  []int
	bin, fill []int
	off       []int64
	nbrs      []int32
}

// viewPool recycles ordered views across coverage searches. Retained
// views (anchored engines) are built with newOrderedView and never
// enter the pool.
var viewPool = sync.Pool{New: func() any { return new(orderedView) }}

func getOrderedView(g *Graph) *orderedView {
	ov := viewPool.Get().(*orderedView)
	ov.reset(g)
	return ov
}

// release returns ov to the view pool; the caller must be done with the
// relabeled graph and both id maps.
func (ov *orderedView) release() {
	ov.g = nil
	viewPool.Put(ov)
}

// newOrderedView builds the degeneracy-relabeled CSR for g, unpooled.
func newOrderedView(g *Graph) *orderedView {
	ov := new(orderedView)
	ov.reset(g)
	return ov
}

// reset (re)builds the view over g, reusing whatever backing a previous
// use left behind. Every buffer is fully overwritten (bin is the one
// counting array that assumes zeros, and it is cleared explicitly), so
// a recycled view is identical to a freshly built one.
func (ov *orderedView) reset(g *Graph) {
	n := g.n
	ov.degeneracyOrder(g)
	ov.newOf = grown(ov.newOf, n)
	for i, v := range ov.origOf {
		ov.newOf[v] = int32(i)
	}
	ov.off = grown(ov.off, n+1)
	ov.off[0] = 0
	for i, v := range ov.origOf {
		ov.off[i+1] = ov.off[i] + int64(g.Degree(v))
	}
	ov.nbrs = grown(ov.nbrs, int(ov.off[n]))
	for i, v := range ov.origOf {
		row := ov.nbrs[ov.off[i]:ov.off[i+1]]
		for j, u := range g.neighbors(v) {
			row[j] = ov.newOf[u]
		}
		slices.Sort(row)
	}
	ov.graph = Graph{off: ov.off, nbrs: ov.nbrs, n: n}
	ov.g = &ov.graph
}

// degeneracyOrder fills ov.origOf with the vertices of g in degeneracy
// order using the O(n+m) bin-sort peel (Matula–Beck). Ties start in
// ascending-id order; the whole procedure is a deterministic function
// of the graph.
func (ov *orderedView) degeneracyOrder(g *Graph) {
	n := g.n
	deg := grown(ov.deg, n)
	ov.deg = deg
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// vert holds the vertices sorted by current degree; bin[d] is the
	// start of degree-d's run, pos[v] the index of v inside vert.
	bin := grown(ov.bin, maxDeg+2)
	ov.bin = bin
	for d := range bin {
		bin[d] = 0
	}
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := grown(ov.origOf, n)
	ov.origOf = vert
	pos := grown(ov.pos, n)
	ov.pos = pos
	fill := grown(ov.fill, maxDeg+1)
	ov.fill = fill
	copy(fill, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = int32(v)
		fill[deg[v]]++
	}
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range g.neighbors(v) {
			if pos[u] <= i {
				continue
			}
			// Move u to the front of its degree bin, then shrink its
			// degree by one so the bin boundary slides over it.
			du := deg[u]
			pu, pw := pos[u], bin[du]
			if w := vert[pw]; w != u {
				vert[pu], vert[pw] = w, u
				pos[w], pos[u] = pu, pw
			}
			bin[du]++
			deg[u]--
		}
	}
}
