package partition

import (
	"math/rand"
	"sort"
	"testing"

	"dsr/internal/graph"
)

// twoBlock builds the 8-vertex fixture graph (two 4-cycles with a bridge
// 3->4) range-partitioned into 2 parts: {0..3} and {4..7}.
func twoBlock(t *testing.T) (*graph.Graph, *graph.Partitioning) {
	t.Helper()
	b := graph.NewBuilder(8)
	edges := [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	pt, err := graph.RangePartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func TestExtractShape(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	if len(subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(subs))
	}
	if subs[0].NumVertices() != 4 || subs[1].NumVertices() != 4 {
		t.Fatalf("subgraph sizes %d/%d, want 4/4", subs[0].NumVertices(), subs[1].NumVertices())
	}
	// Each vertex maps back to itself through (partition, local).
	for v := 0; v < g.NumVertices(); v++ {
		s := subs[pt.Part[v]]
		if got := s.GlobalID(local[v]); got != graph.VertexID(v) {
			t.Errorf("GlobalID(local[%d]) = %d", v, got)
		}
	}
	// Partition 0 has no entries (nothing crosses into it) and one exit (3).
	if len(subs[0].Entries) != 0 {
		t.Errorf("partition 0 entries = %v, want none", subs[0].Entries)
	}
	if len(subs[0].Exits) != 1 || subs[0].GlobalID(subs[0].Exits[0]) != 3 {
		t.Errorf("partition 0 exits wrong")
	}
	// Partition 1 has one entry (4) and no exits.
	if len(subs[1].Entries) != 1 || subs[1].GlobalID(subs[1].Entries[0]) != 4 {
		t.Errorf("partition 1 entries wrong")
	}
	if len(subs[1].Exits) != 0 {
		t.Errorf("partition 1 exits = %v, want none", subs[1].Exits)
	}
}

func TestReachForwardBackward(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	s0 := subs[pt.Part[0]]
	sc := NewScratch(s0.NumVertices())

	reach := s0.ReachForward([]int32{local[0]}, sc)
	if len(reach) != 4 {
		t.Fatalf("forward reach from 0 inside cycle = %d vertices, want 4", len(reach))
	}
	back := s0.ReachBackward([]int32{local[0]}, sc)
	if len(back) != 4 {
		t.Fatalf("backward reach from 0 inside cycle = %d vertices, want 4", len(back))
	}
}

func TestReachStaysInPartition(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	s0 := subs[pt.Part[3]]
	sc := NewScratch(s0.NumVertices())
	// The bridge 3->4 is cross-partition: forward reach from 3 must not
	// include any vertex of partition 1.
	for _, v := range s0.ReachForward([]int32{local[3]}, sc) {
		if gid := s0.GlobalID(v); gid >= 4 {
			t.Fatalf("local reach escaped partition: reached global %d", gid)
		}
	}
}

func TestSummaryCompression(t *testing.T) {
	// Chain across three range partitions of {0,1},{2,3},{4,5}:
	// 0->1->2->3->4->5. Middle partition: entry 2 reaches exit 3.
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	pt, err := graph.RangePartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := Extract(g, pt)
	pairs := subs[1].Summary(nil)
	if len(pairs) != 1 || pairs[0] != [2]graph.VertexID{2, 3} {
		t.Fatalf("middle partition summary = %v, want [[2 3]]", pairs)
	}
	// First partition has no entries -> empty summary; last has no exits.
	if got := subs[0].Summary(nil); len(got) != 0 {
		t.Fatalf("first partition summary = %v, want empty", got)
	}
	if got := subs[2].Summary(nil); len(got) != 0 {
		t.Fatalf("last partition summary = %v, want empty", got)
	}
}

func TestSummaryEntryIsExit(t *testing.T) {
	// 0 -> 1 -> 2 with singleton middle partition {1}: vertex 1 is both
	// entry and exit, so its summary must contain the pair (1, 1).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	pt, err := graph.RangePartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := Extract(g, pt)
	pairs := subs[1].Summary(nil)
	if len(pairs) != 1 || pairs[0] != [2]graph.VertexID{1, 1} {
		t.Fatalf("singleton boundary summary = %v, want [[1 1]]", pairs)
	}
}

func TestSummaryDisconnectedBoundary(t *testing.T) {
	// Partition {2,3} of 0->2, 3->4 (range k=3 over 5 vertices... build
	// explicitly): entry 2 cannot reach exit 3, so no summary edge.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2) // into middle partition
	b.AddEdge(3, 4) // out of middle partition
	g := b.Build()
	pt, err := graph.RangePartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := Extract(g, pt)
	if got := subs[1].Summary(nil); len(got) != 0 {
		t.Fatalf("disconnected boundary summary = %v, want empty", got)
	}
}

func sortPairs(p [][2]graph.VertexID) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func TestSummaryMultipleExits(t *testing.T) {
	// Middle partition {2,3} with entry 2, internal edge 2->3, and both
	// 2 and 3 exiting: summary must contain (2,2) and (2,3).
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 5)
	g := b.Build()
	pt, err := graph.RangePartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := Extract(g, pt)
	pairs := subs[1].Summary(nil)
	sortPairs(pairs)
	want := [][2]graph.VertexID{{2, 2}, {2, 3}}
	if len(pairs) != 2 || pairs[0] != want[0] || pairs[1] != want[1] {
		t.Fatalf("summary = %v, want %v", pairs, want)
	}
}

// TestSummaryIndexVsBFSDifferential pits the SCC-bitset-index summary
// against the per-entry-BFS reference on randomized graphs across both
// partitioners: after sorting, the pair sets must be identical. One
// shared Scratch serves every partition of every graph, exercising the
// scratch-reuse path as well.
func TestSummaryIndexVsBFSDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	const graphs = 220
	const maxN = 120
	sc := NewScratch(maxN)
	checkedPartitions := 0
	for gi := 0; gi < graphs; gi++ {
		n := 1 + rng.Intn(maxN)
		deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		b := graph.NewBuilder(n)
		for i := 0; i < int(float64(n)*deg); i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		k := 2 + rng.Intn(4)
		var pt *graph.Partitioning
		var err error
		if rng.Intn(2) == 0 {
			pt, err = graph.HashPartition(g, k)
		} else {
			pt, err = graph.RangePartition(g, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		subs, _ := Extract(g, pt)
		for _, s := range subs {
			got := s.Summary(sc)
			want := summaryBFS(s, sc)
			sortPairs(got)
			sortPairs(want)
			if len(got) != len(want) {
				t.Fatalf("graph %d partition %d: index summary has %d pairs, BFS has %d\nindex: %v\nbfs:   %v",
					gi, s.ID, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("graph %d partition %d: pair %d differs: index %v, BFS %v",
						gi, s.ID, i, got[i], want[i])
				}
			}
			checkedPartitions++
		}
	}
	if checkedPartitions < 200 {
		t.Fatalf("only %d partitions checked, want >= 200", checkedPartitions)
	}
}

// summaryBFS is the reference implementation of Subgraph.Summary: one
// forward BFS per entry, O(B·(V+E)) for B boundary entries, kept for
// differential testing against the index-based path. sc provides the
// reusable BFS scratch.
func summaryBFS(s *Subgraph, sc *Scratch) [][2]graph.VertexID {
	xmark := NewMarks(s.NumVertices())
	for _, x := range s.Exits {
		xmark.Mark(x)
	}
	var pairs [][2]graph.VertexID
	seed := make([]int32, 1)
	for _, e := range s.Entries {
		seed[0] = e
		for _, v := range s.ReachForward(seed, sc) {
			if xmark.Seen(v) {
				pairs = append(pairs, [2]graph.VertexID{s.global[e], s.global[v]})
			}
		}
	}
	return pairs
}
