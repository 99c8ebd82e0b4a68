package dsr

import (
	"fmt"
	"slices"

	"dsr/internal/scc"
	"dsr/internal/wire"
)

// boundaryGraph is the compressed global view stitched from the shards'
// boundary summaries: vertices are the boundary vertices of the
// partitioned graph, edges are the per-partition entry->exit summaries
// plus the raw cross-partition edges.
//
// The graph is stitched at vertex level (verts, off/arena: a CSR over
// dense ids, the ranks in verts) and then SCC-condensed. What the
// coordinator keeps is the boundary vertex count, the index — which
// after condensing maps a global ID straight to its component — and the
// condensation DAG, so the query-time finish walks components, not
// vertices. The vertex-level arrays live only between stitchVertices
// and condense.
type boundaryGraph struct {
	nb    int        // boundary vertex count
	index denseIndex // global ID -> dense id; -> component once condensed

	// Vertex-level stitched graph, dense ids; nil once condensed.
	verts []uint32 // sorted global IDs of every boundary vertex
	off   []int64  // CSR row offsets into arena, nb+1
	arena []int32  // concatenated adjacency rows, dense ids

	// The condensation DAG's forward CSR. Components are numbered in
	// reverse topological order (every DAG edge c->d has d < c).
	dagOff   []int32
	dagEdges []int32
}

// NumVertices returns the boundary vertex count. With Out it makes the
// vertex-level graph an scc.Adjacency.
func (bg *boundaryGraph) NumVertices() int { return bg.nb }

// Out returns the stitched adjacency row of dense id d. Rows may hold
// duplicates and self-loops; only valid before condense.
func (bg *boundaryGraph) Out(d int32) []int32 { return bg.arena[bg.off[d]:bg.off[d+1]] }

// numComps returns the component count of the condensation.
func (bg *boundaryGraph) numComps() int { return len(bg.dagOff) - 1 }

// succ returns the successor components of component c in the DAG.
func (bg *boundaryGraph) succ(c int32) []int32 { return bg.dagEdges[bg.dagOff[c]:bg.dagOff[c+1]] }

// residentBytes is the memory footprint of what the coordinator keeps
// of the condensed boundary graph — the only per-graph state it
// retains: the ID -> component index and the condensation DAG.
func (bg *boundaryGraph) residentBytes() int {
	return bg.index.bytes() + 4*len(bg.dagOff) + 4*len(bg.dagEdges)
}

// denseIndex maps the global ID of a boundary vertex to a dense id (its
// rank, or after remap its component) by open addressing with linear
// probing, sized to the boundary (load factor <= 1/2), never to the
// graph. Each slot packs key<<32 | dense+1, so one 8-byte load answers a
// probe and a zero slot is empty.
type denseIndex struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): the hash keeps the product's top bits
}

// newDenseIndex indexes verts: verts[d] maps to d. verts must hold no
// duplicates.
func newDenseIndex(verts []uint32) denseIndex {
	size, shift := 4, uint(62)
	for size < 2*len(verts) {
		size <<= 1
		shift--
	}
	ix := denseIndex{slots: make([]uint64, size), shift: shift}
	mask := uint64(size - 1)
	for d, v := range verts {
		i := ix.home(v)
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = uint64(v)<<32 | uint64(d+1)
	}
	return ix
}

// home is v's first probe slot (Fibonacci hashing: the top bits of a
// 64-bit multiplicative hash, so IDs sharing low bits still spread).
func (ix *denseIndex) home(v uint32) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> ix.shift
}

// lookup returns the dense id stored for global ID v, or false if v is
// not a boundary vertex.
func (ix *denseIndex) lookup(v uint32) (int32, bool) {
	mask := uint64(len(ix.slots) - 1)
	for i := ix.home(v); ; i = (i + 1) & mask {
		s := ix.slots[i&mask]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == v {
			return int32(uint32(s)) - 1, true
		}
	}
}

// remap replaces every stored dense id d by m[d].
func (ix *denseIndex) remap(m []int32) {
	for i, s := range ix.slots {
		if s != 0 {
			ix.slots[i] = s&^0xFFFFFFFF | uint64(m[uint32(s)-1]+1)
		}
	}
}

// bytes is the index's memory footprint.
func (ix *denseIndex) bytes() int { return 8 * len(ix.slots) }

// stitchBoundary builds the coordinator's boundary graph from the k
// shards' boundary summaries — nothing else — and condenses it. n is the
// global vertex count, used only to range-check the summaries; the full
// graph is never consulted.
func stitchBoundary(n int, sums []wire.Summary) (*boundaryGraph, error) {
	bg, err := stitchVertices(n, sums)
	if err != nil {
		return nil, err
	}
	bg.condense()
	return bg, nil
}

// stitchVertices builds the vertex-level boundary graph from the
// summaries.
//
// The heavy phases are parallel over shards, which is safe because each
// adjacency row is owned by exactly one shard: every stitched edge is
// keyed by its source vertex, and the validation pass proves each
// shard's edge sources lie in that shard's own boundary set before any
// row is touched. The boundary sets themselves cannot overlap — a
// duplicate across shards is rejected as a fleet inconsistency.
func stitchVertices(n int, sums []wire.Summary) (*boundaryGraph, error) {
	k := len(sums)
	total := 0
	for p := range sums {
		total += len(sums[p].Boundary)
	}
	verts := make([]uint32, 0, total)
	for p := range sums {
		verts = append(verts, sums[p].Boundary...)
	}
	slices.Sort(verts)
	for i := 1; i < len(verts); i++ {
		if verts[i] == verts[i-1] {
			return nil, fmt.Errorf("dsr: boundary vertex %d claimed by two shards — the fleet was not built from one partitioning", verts[i])
		}
	}
	if len(verts) > 0 && int64(verts[len(verts)-1]) >= int64(n) {
		return nil, fmt.Errorf("dsr: boundary vertex %d out of range (graph has %d vertices)", verts[len(verts)-1], n)
	}
	nb := len(verts)
	bg := &boundaryGraph{nb: nb, index: newDenseIndex(verts), verts: verts, off: make([]int64, nb+1)}

	// owner[d] is the shard that declared dense id d (boundary sets are
	// disjoint, so the parallel writes are too).
	owner := make([]int32, nb)
	parallelParts(k, func(p int) {
		for _, v := range sums[p].Boundary {
			d, _ := bg.index.lookup(v)
			owner[d] = int32(p)
		}
	})

	// Validation before any stitching: each shard's edge sources must be
	// its own boundary vertices (row ownership — the parallel count and
	// fill below stay race-free even against a buggy or hostile shard)
	// and each target must resolve to some shard's boundary vertex. The
	// same pass counts per-row degrees.
	deg := make([]int32, nb)
	errs := make([]error, k)
	parallelParts(k, func(p int) {
		check := func(pair [2]uint32, what string) error {
			d, ok := bg.index.lookup(pair[0])
			if !ok || owner[d] != int32(p) {
				return fmt.Errorf("dsr: shard %d %s edge %d->%d: source is not one of its boundary vertices", p, what, pair[0], pair[1])
			}
			if _, ok := bg.index.lookup(pair[1]); !ok {
				return fmt.Errorf("dsr: shard %d %s edge %d->%d: target is not a boundary vertex of any shard", p, what, pair[0], pair[1])
			}
			deg[d]++
			return nil
		}
		for _, pr := range sums[p].Edges {
			if errs[p] = check(pr, "summary"); errs[p] != nil {
				return
			}
		}
		for _, pr := range sums[p].Cross {
			if errs[p] = check(pr, "cross"); errs[p] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Lay out the CSR arena and fill the rows (deg doubles as the per-row
	// cursor). Rows keep multi-edges and entry==exit self-pairs: the
	// condensation dedupes its DAG edges anyway.
	for i := 0; i < nb; i++ {
		bg.off[i+1] = bg.off[i] + int64(deg[i])
	}
	bg.arena = make([]int32, bg.off[nb])
	clear(deg)
	parallelParts(k, func(p int) {
		put := func(pr [2]uint32) {
			d, _ := bg.index.lookup(pr[0])
			t, _ := bg.index.lookup(pr[1])
			bg.arena[bg.off[d]+int64(deg[d])] = t
			deg[d]++
		}
		for _, pr := range sums[p].Edges {
			put(pr)
		}
		for _, pr := range sums[p].Cross {
			put(pr)
		}
	})
	return bg, nil
}

// condense replaces the vertex-level graph with its SCC condensation:
// the index is remapped to answer components, and only the DAG's
// forward CSR is kept. The condensation's component map, reverse CSR
// and member lists are not needed by the finish and are dropped with the
// vertex-level arrays.
func (bg *boundaryGraph) condense() {
	cd := scc.Condense(bg, nil).Data()
	bg.index.remap(cd.Comp)
	bg.dagOff, bg.dagEdges = cd.FOff, cd.FEdges
	bg.verts, bg.off, bg.arena = nil, nil, nil
}
