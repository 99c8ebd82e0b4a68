// Package partition extracts per-partition subgraphs from a partitioned
// graph and compresses each one into a small boundary-to-boundary edge
// set: for every boundary in-node (entry) of the partition, the set of
// boundary out-nodes (exits) it can reach without leaving the partition.
// These summaries are what the DSR engine stitches into the global
// boundary graph, so cross-partition query traffic only ever involves
// boundary vertices.
package partition

import (
	"slices"

	"dsr/internal/graph"
	"dsr/internal/scc"
)

// Subgraph is the induced subgraph of one partition with dense local
// vertex IDs and both forward and reverse CSR adjacency over the
// intra-partition edges only.
type Subgraph struct {
	ID     int
	global []graph.VertexID // local -> global
	foff   []int64
	fedges []int32
	roff   []int64
	redges []int32
	// Entries and Exits are local IDs of boundary in-/out-nodes.
	Entries []int32
	Exits   []int32
	// Cross holds the cross-partition edges whose source lies in this
	// partition, as (source, destination) global-ID pairs. Together
	// with the entry→exit summaries these are the partition's whole
	// contribution to the global boundary graph, which is what a shard
	// ships to a graph-free coordinator.
	Cross [][2]graph.VertexID

	// Lazily built and cached by Condensation/Index. Not synchronized:
	// concurrent builders must each own distinct subgraphs (as the
	// engine's build pool does).
	cond  *scc.Condensation
	index *scc.Index
}

// NumVertices returns the number of vertices in the partition.
func (s *Subgraph) NumVertices() int { return len(s.global) }

// GlobalID maps a local vertex ID back to the global ID.
func (s *Subgraph) GlobalID(local int32) graph.VertexID { return s.global[local] }

// Local maps a global vertex ID to its local ID within the partition,
// or reports false if the vertex is not owned by it. The local→global
// map is strictly increasing by construction (both Extract and
// ExtractOne assign local IDs in global order), so a binary search
// answers ownership without any per-vertex placement table — which is
// what lets task seeds be global IDs that every shard resolves for
// itself.
func (s *Subgraph) Local(gv graph.VertexID) (int32, bool) {
	lv, ok := slices.BinarySearch(s.global, gv)
	return int32(lv), ok
}

// Out returns the local out-neighbors of v over intra-partition edges.
// Together with NumVertices it implements scc.Adjacency. Callers must
// not mutate the returned slice.
func (s *Subgraph) Out(v int32) []int32 { return s.fedges[s.foff[v]:s.foff[v+1]] }

// In returns the local in-neighbors of v over intra-partition edges.
// Callers must not mutate the returned slice.
func (s *Subgraph) In(v int32) []int32 { return s.redges[s.roff[v]:s.roff[v+1]] }

// Condensation returns the SCC condensation of the subgraph, building
// and caching it on first call. sc may be nil; when non-nil its scc
// workspace is reused for the build.
func (s *Subgraph) Condensation(sc *Scratch) *scc.Condensation {
	if s.cond == nil {
		s.cond = scc.Condense(s, sc.sccWorkspace())
	}
	return s.cond
}

// Index returns the bitset reachability index over the subgraph's
// exits, building and caching it (and the condensation) on first call.
// sc may be nil.
func (s *Subgraph) Index(sc *Scratch) *scc.Index {
	if s.index == nil {
		s.index = scc.BuildIndex(s.Condensation(sc), s.Exits)
	}
	return s.index
}

// Extract splits g into one Subgraph per partition. The returned local
// slice maps every global vertex to its local ID within its partition.
func Extract(g *graph.Graph, pt *graph.Partitioning) ([]*Subgraph, []int32) {
	n := g.NumVertices()
	local := make([]int32, n)
	subs := make([]*Subgraph, pt.K)
	for p := range subs {
		subs[p] = &Subgraph{ID: p}
	}
	for v := 0; v < n; v++ {
		s := subs[pt.Part[v]]
		local[v] = int32(len(s.global))
		s.global = append(s.global, graph.VertexID(v))
	}
	for _, s := range subs {
		s.foff = make([]int64, s.NumVertices()+1)
		s.roff = make([]int64, s.NumVertices()+1)
	}
	// Two passes over the edge set: count, then fill. Cross-partition
	// edges are collected (keyed by their source's partition) on the
	// count pass.
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			s.foff[local[u]+1]++
			s.roff[local[v]+1]++
		} else {
			s := subs[pt.Part[u]]
			s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
		}
	})
	for _, s := range subs {
		s.finishOffsets()
	}
	fcur := make([]int64, n)
	rcur := make([]int64, n)
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			lu, lv := local[u], local[v]
			s.fedges[s.foff[lu]+fcur[u]] = lv
			fcur[u]++
			s.redges[s.roff[lv]+rcur[v]] = lu
			rcur[v]++
		}
	})
	for v := 0; v < n; v++ {
		subs[pt.Part[v]].markBoundary(pt, graph.VertexID(v), local[v])
	}
	return subs, local
}

// finishOffsets turns the per-vertex degree counts accumulated in
// foff/roff (at index i+1) into prefix-sum offsets and allocates the
// edge arrays — the step between the count pass and the fill pass of
// CSR construction.
func (s *Subgraph) finishOffsets() {
	for i := 1; i <= s.NumVertices(); i++ {
		s.foff[i] += s.foff[i-1]
		s.roff[i] += s.roff[i-1]
	}
	s.fedges = make([]int32, s.foff[s.NumVertices()])
	s.redges = make([]int32, s.roff[s.NumVertices()])
}

// markBoundary appends local vertex lv (global gv) to the Entries/Exits
// lists according to the partitioning's boundary marks. Absent marks (a
// hand-rolled Partitioning) read as non-boundary, matching
// Partitioning.IsBoundary.
func (s *Subgraph) markBoundary(pt *graph.Partitioning, gv graph.VertexID, lv int32) {
	if int(gv) < len(pt.Entry) && pt.Entry[gv] {
		s.Entries = append(s.Entries, lv)
	}
	if int(gv) < len(pt.Exit) && pt.Exit[gv] {
		s.Exits = append(s.Exits, lv)
	}
}

// ExtractOne builds only partition id's Subgraph — what a standalone
// shard server needs. Unlike Extract it never materializes the other
// partitions' CSR copies: peak extra memory is one int32 per graph
// vertex for the local-ID map plus this partition's own adjacency, so
// shard-process startup memory scales with the shard's share of the
// graph, not with all k partitions.
func ExtractOne(g *graph.Graph, pt *graph.Partitioning, id int) *Subgraph {
	n := g.NumVertices()
	s := &Subgraph{ID: id}
	local := make([]int32, n)
	for v := 0; v < n; v++ {
		if pt.Part[v] == int32(id) {
			local[v] = int32(len(s.global))
			s.global = append(s.global, graph.VertexID(v))
		}
	}
	s.foff = make([]int64, s.NumVertices()+1)
	s.roff = make([]int64, s.NumVertices()+1)
	// Two passes over this partition's out-edges only: count, then fill.
	// Every intra-partition edge has its source here, so this covers the
	// reverse adjacency too — and every cross-partition edge this
	// partition contributes to the boundary graph has its source here,
	// so the count pass collects them.
	for _, u := range s.global {
		for _, v := range g.Out(u) {
			if pt.Part[v] == int32(id) {
				s.foff[local[u]+1]++
				s.roff[local[v]+1]++
			} else {
				s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
			}
		}
	}
	s.finishOffsets()
	fcur := make([]int64, s.NumVertices())
	rcur := make([]int64, s.NumVertices())
	for _, u := range s.global {
		lu := local[u]
		for _, v := range g.Out(u) {
			if pt.Part[v] == int32(id) {
				lv := local[v]
				s.fedges[s.foff[lu]+fcur[lu]] = lv
				fcur[lu]++
				s.redges[s.roff[lv]+rcur[lv]] = lu
				rcur[lv]++
			}
		}
	}
	for _, u := range s.global {
		s.markBoundary(pt, u, local[u])
	}
	return s
}

// Scratch is reusable per-worker working memory: an epoch-marked
// visited set plus BFS queue for local searches, and an scc workspace
// for condensation builds. Every piece is created on first use, so
// callers that exercise only one path (e.g. the index-based Summary,
// which needs just the scc workspace) pay for nothing else. A Scratch
// sized for n vertices works for any subgraph with at most n vertices,
// so one scratch can serve many partitions.
type Scratch struct {
	n     int
	marks *Marks // BFS visited set, lazy
	queue []int32
	scc   *scc.Workspace
}

// NewScratch returns scratch sized for a subgraph with n vertices.
func NewScratch(n int) *Scratch { return &Scratch{n: n} }

// searchMarks returns the BFS visited set, creating it on first use.
func (sc *Scratch) searchMarks() *Marks {
	if sc.marks == nil {
		sc.marks = NewMarks(sc.n)
	}
	return sc.marks
}

// sccWorkspace returns the scratch's scc workspace, creating it on
// first use. A nil receiver yields a nil workspace, which the scc
// package accepts as "allocate privately".
func (sc *Scratch) sccWorkspace() *scc.Workspace {
	if sc == nil {
		return nil
	}
	if sc.scc == nil {
		sc.scc = &scc.Workspace{}
	}
	return sc.scc
}

func (sc *Scratch) reset() {
	sc.searchMarks().Reset()
	sc.queue = sc.queue[:0]
}

// ReachForward returns every local vertex reachable from seeds (seeds
// included) following intra-partition edges forward. The returned slice
// aliases sc and is valid until the next call with the same Scratch.
func (s *Subgraph) ReachForward(seeds []int32, sc *Scratch) []int32 {
	return s.reach(seeds, sc, s.foff, s.fedges)
}

// ReachBackward is ReachForward over reversed edges: every local vertex
// that can reach one of seeds inside the partition.
func (s *Subgraph) ReachBackward(seeds []int32, sc *Scratch) []int32 {
	return s.reach(seeds, sc, s.roff, s.redges)
}

func (s *Subgraph) reach(seeds []int32, sc *Scratch, off []int64, edges []int32) []int32 {
	sc.reset()
	marks := sc.marks
	for _, v := range seeds {
		if marks.Mark(v) {
			sc.queue = append(sc.queue, v)
		}
	}
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		for _, w := range edges[off[v]:off[v+1]] {
			if marks.Mark(w) {
				sc.queue = append(sc.queue, w)
			}
		}
	}
	return sc.queue
}

// Summary compresses the partition into boundary-to-boundary edges: one
// (entry, exit) pair of global IDs for every exit reachable from each
// entry without leaving the partition. An entry that is itself an exit
// yields the pair (e, e). It reads off the SCC bitset index — one
// O(V+E) condensation plus word-parallel propagation covers all
// entries, instead of one BFS per entry. sc, which may be nil, provides
// reusable working memory for the index build.
func (s *Subgraph) Summary(sc *Scratch) [][2]graph.VertexID {
	ix := s.Index(sc)
	var pairs [][2]graph.VertexID
	var buf []int32
	for _, e := range s.Entries {
		buf = ix.AppendExitsFrom(e, buf[:0])
		for _, x := range buf {
			pairs = append(pairs, [2]graph.VertexID{s.global[e], s.global[x]})
		}
	}
	return pairs
}
