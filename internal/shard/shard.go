// Package shard is the DSR execution runtime: a Shard executes local
// searches over one partition's subgraph, and the Replicated transport
// carries task batches from the coordinator to each partition's
// replicas — in-process replicas (NewLocal) or dsr-shard servers over
// TCP (Dial, DialReplicated, Server) speaking the internal/wire
// protocol. The coordinator in internal/dsr only ever speaks Transport,
// so the single-process engine is literally the distributed one with
// one local replica per partition.
package shard

import (
	"slices"
	"sync"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/scc"
	"dsr/internal/wire"
)

// Shard executes local-search tasks against one partition. Searches run
// over the partition's SCC condensation, not its vertices: a BFS visits
// each component once, so a partition that is one big cycle costs O(1)
// queue work instead of O(V). Reached boundary vertices are read back
// through per-component exit and entry lists, so a search's output costs
// what it reports, not the size of the components it visits.
//
// All scratch (component marks, queue, result and boundary buffers) is
// owned by the Shard and reused across Run calls with the epoch trick,
// so steady-state batches allocate nothing here. A Shard is not safe
// for concurrent Run calls; every Transport serializes them.
type Shard struct {
	id   int
	sub  *partition.Subgraph
	cond *scc.Condensation
	// exits and entries list, per component of cond, the global IDs of
	// its boundary out- and in-nodes in ascending local order (the order
	// of the component's member list).
	exits, entries compLists

	cvisit  *partition.Marks // component-level BFS visited marks
	cqueue  []int32          // component-level BFS queue
	lseeds  []int32          // reused local-seed translation buffer
	results []wire.Result    // reused result batch
	arena   []uint32         // reused boundary-vertex storage

	sumOnce sync.Once // guards the lazily built boundary summary
	sum     wire.Summary
}

// compLists groups a set of a partition's vertices by SCC component, as
// global IDs: a CSR whose row c holds the set's members of component c.
type compLists struct {
	off []int32 // row offsets into ids, len cond.N+1
	ids []uint32
}

// newCompLists groups vs (strictly increasing local IDs) by component of
// cond; each row keeps vs's order.
func newCompLists(sub *partition.Subgraph, cond *scc.Condensation, vs []int32) compLists {
	l := compLists{off: make([]int32, cond.N+1), ids: make([]uint32, len(vs))}
	for _, v := range vs {
		l.off[cond.Comp[v]+1]++
	}
	for c := 0; c < cond.N; c++ {
		l.off[c+1] += l.off[c]
	}
	cur := slices.Clone(l.off[:cond.N])
	for _, v := range vs {
		c := cond.Comp[v]
		l.ids[cur[c]] = uint32(sub.GlobalID(v))
		cur[c]++
	}
	return l
}

// row returns the global IDs listed for component c.
func (l *compLists) row(c int32) []uint32 { return l.ids[l.off[c]:l.off[c+1]] }

// New builds a Shard over one partition's subgraph, building (or
// reusing the cached) SCC condensation and grouping the partition's
// exits and entries by component.
func New(id int, sub *partition.Subgraph) *Shard {
	cond := sub.Condensation(nil)
	return &Shard{
		id:      id,
		sub:     sub,
		cond:    cond,
		exits:   newCompLists(sub, cond, sub.Exits),
		entries: newCompLists(sub, cond, sub.Entries),
		cvisit:  partition.NewMarks(cond.N),
	}
}

// ID returns the shard's partition index.
func (s *Shard) ID() int { return s.id }

// NumVertices returns the partition's vertex count.
func (s *Shard) NumVertices() int { return s.sub.NumVertices() }

// bfs runs a component-level BFS from the components of the given local
// seed vertices, forward or backward over the condensation DAG, and
// returns the visited components. The returned slice aliases s.cqueue
// and the visit marks stay valid until the next call.
func (s *Shard) bfs(seeds []int32, forward bool) []int32 {
	s.cvisit.Reset()
	q := s.cqueue[:0]
	for _, v := range seeds {
		if c := s.cond.Comp[v]; s.cvisit.Mark(c) {
			q = append(q, c)
		}
	}
	for head := 0; head < len(q); head++ {
		var nbrs []int32
		if forward {
			nbrs = s.cond.Out(q[head])
		} else {
			nbrs = s.cond.In(q[head])
		}
		for _, d := range nbrs {
			if s.cvisit.Mark(d) {
				q = append(q, d)
			}
		}
	}
	s.cqueue = q
	return q
}

// Run executes every task in the batch in order and returns one result
// per task. The returned slice and the Boundary slices inside it alias
// Shard-owned buffers: they are valid until the next Run.
//
// Seeds and targets are global vertex IDs: the coordinator broadcasts
// the same batch to every shard, and each shard resolves ownership for
// itself (binary search over its sorted local→global map), silently
// skipping seeds it does not hold. The per-task Owned count reports how
// many seeds this shard did hold, which is how a placement-free
// coordinator knows the fleet collectively covered every seed.
func (s *Shard) Run(tasks []wire.Task) []wire.Result {
	res := s.results[:0]
	arena := s.arena[:0]
	for i := range tasks {
		t := &tasks[i]
		r := wire.Result{Kind: t.Kind, Query: t.Query}
		lseeds := s.lseeds[:0]
		for _, v := range t.Seeds {
			if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
				lseeds = append(lseeds, lv)
			}
		}
		s.lseeds = lseeds
		r.Owned = uint32(len(lseeds))
		switch t.Kind {
		case wire.Forward:
			comps := s.bfs(lseeds, true)
			for _, v := range t.Targets {
				if lv, ok := s.sub.Local(graph.VertexID(v)); ok && s.cvisit.Seen(s.cond.Comp[lv]) {
					r.Hit = true
					break
				}
			}
			start := len(arena)
			for _, c := range comps {
				arena = append(arena, s.exits.row(c)...)
			}
			r.Boundary = arena[start:len(arena):len(arena)]
		case wire.Backward:
			comps := s.bfs(lseeds, false)
			start := len(arena)
			for _, c := range comps {
				arena = append(arena, s.entries.row(c)...)
			}
			r.Boundary = arena[start:len(arena):len(arena)]
		}
		res = append(res, r)
	}
	s.results, s.arena = res, arena
	return res
}

// Summary returns the shard's boundary summary — its boundary-vertex
// set, entry→exit summary edges, and outgoing cross-partition edges,
// all as global IDs. This is everything a graph-free coordinator needs
// from this partition to stitch the global boundary graph. Built once
// (the first call builds the SCC reachability index) and cached;
// subsequent calls are free and safe concurrently with each other.
func (s *Shard) Summary() wire.Summary {
	s.sumOnce.Do(func() {
		var edges [][2]uint32
		for _, pr := range s.sub.Summary(nil) {
			edges = append(edges, [2]uint32{uint32(pr[0]), uint32(pr[1])})
		}
		s.sum = s.summaryWith(edges)
	})
	return s.sum
}

// summaryWith assembles the boundary summary around the given summary
// edges: the boundary-vertex set and the cross edges are re-emitted from
// the subgraph in output-linear time.
func (s *Shard) summaryWith(edges [][2]uint32) wire.Summary {
	sum := wire.Summary{Edges: edges}
	// Sorted and deduplicated (a vertex can be both entry and exit):
	// the canonical form DecodeSummary enforces.
	for _, lv := range s.sub.Entries {
		sum.Boundary = append(sum.Boundary, uint32(s.sub.GlobalID(lv)))
	}
	for _, lv := range s.sub.Exits {
		sum.Boundary = append(sum.Boundary, uint32(s.sub.GlobalID(lv)))
	}
	slices.Sort(sum.Boundary)
	sum.Boundary = slices.Compact(sum.Boundary)
	for _, pr := range s.sub.Cross {
		sum.Cross = append(sum.Cross, [2]uint32{uint32(pr[0]), uint32(pr[1])})
	}
	return sum
}
