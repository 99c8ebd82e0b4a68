package locality_test

import (
	"fmt"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
)

// plantedFixture is the shared clustered benchmark graph: 50k vertices,
// 4 planted communities, dense inside (intra out-degree 8), sparse
// between (inter out-degree 0.05), community membership scattered
// across the ID space so nothing but the edges reveals the structure.
func plantedFixture(tb testing.TB) (*graph.Graph, []int32) {
	tb.Helper()
	g, truth, err := gen.Planted(gen.PlantedConfig{
		N: 50000, K: 4, IntraDeg: 8, InterDeg: 0.05, Seed: 42, Shuffle: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g, truth
}

// TestLocalityBeatsHashOnClusteredGraph is the PR's acceptance
// criterion: on a 50k-vertex planted-partition graph with k=4, the
// locality partitioner must cut the boundary-vertex count by at least
// 3x versus hash partitioning. (In practice the margin is far larger:
// hash makes essentially every vertex boundary, locality only the
// vertices with inter-community edges.)
func TestLocalityBeatsHashOnClusteredGraph(t *testing.T) {
	g, _ := plantedFixture(t)
	const k = 4

	hashPt, err := graph.HashPartition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	locPt, err := locality.Partition(g, k, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := partition.ComputeStats(g, hashPt)
	ls := partition.ComputeStats(g, locPt)
	t.Logf("hash:     %v", hs)
	t.Logf("locality: %v", ls)

	if ls.BoundaryVertices*3 > hs.BoundaryVertices {
		t.Errorf("locality boundary %d not >= 3x better than hash boundary %d",
			ls.BoundaryVertices, hs.BoundaryVertices)
	}
	if ls.CutEdges >= hs.CutEdges {
		t.Errorf("locality cut edges %d not better than hash %d", ls.CutEdges, hs.CutEdges)
	}
	if ls.MaxPart > int(1.15*float64(g.NumVertices())/k)+1 {
		t.Errorf("locality max partition %d violates balance cap", ls.MaxPart)
	}
	if ls.MinPart == 0 {
		t.Errorf("locality left a partition empty on a 4-community graph")
	}
}

// TestPartitionDeterminism: identical inputs must give identical
// assignments — the distributed deployment depends on it — and a
// different seed is allowed to (and here does) give a different one.
func TestPartitionDeterminism(t *testing.T) {
	g, _, err := gen.Planted(gen.PlantedConfig{
		N: 2000, K: 3, IntraDeg: 6, InterDeg: 0.5, Seed: 7, Shuffle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := locality.Partition(g, 3, locality.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := locality.Partition(g, 3, locality.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Part, b.Part) {
		t.Fatal("same seed produced different partitionings")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same partitioning, different digests")
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if pt, err := locality.Partition(empty, 4, locality.Options{}); err != nil || pt.K != 4 {
		t.Fatalf("empty graph: %v, %v", pt, err)
	}

	// k=1: everything lands in partition 0, nothing is boundary.
	line := graph.NewBuilder(0)
	for i := 0; i < 10; i++ {
		line.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	lg := line.Build()
	pt, err := locality.Partition(lg, 1, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nb := pt.NumBoundary(); nb != 0 {
		t.Fatalf("k=1 has %d boundary vertices, want 0", nb)
	}

	// More partitions than vertices: valid, some partitions stay empty.
	pt, err = locality.Partition(lg, 64, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.ComputeStats(lg, pt); got.NumVertices != 11 {
		t.Fatalf("k>n stats: %v", got)
	}

	// Bad options are rejected, not silently clamped.
	if _, err := locality.Partition(lg, 0, locality.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := locality.Partition(lg, 2, locality.Options{Balance: 0.9}); err == nil {
		t.Error("balance <= 1 accepted")
	}
	if _, err := locality.Partition(lg, 2, locality.Options{Rounds: -1}); err == nil {
		t.Error("negative rounds accepted")
	}
}

// TestPartitionBalanceCap: even on a graph that "wants" one giant
// cluster, no partition may exceed the balance cap.
func TestPartitionBalanceCap(t *testing.T) {
	// A dense 300-vertex random-ish community: LPA would happily make it
	// one cluster, but the cap must split it across k=3.
	b := graph.NewBuilder(300)
	for v := 0; v < 300; v++ {
		for j := 1; j <= 5; j++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID((v*7+j*13)%300))
		}
	}
	g := b.Build()
	pt, err := locality.Partition(g, 3, locality.Options{Balance: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	st := partition.ComputeStats(g, pt)
	if cap := int32(110); int32(st.MaxPart) > cap {
		t.Fatalf("max partition %d exceeds cap %d: %v", st.MaxPart, cap, st)
	}
}

// TestPartitionPackingFragmentation: three tight 4-cliques into two
// partitions of capacity ceil(1.15*12/2)=7 — no partition can hold two
// whole clusters, so one cluster must be split rather than dumped onto
// a partition past the Balance cap (the bug this test pins: the old
// fallback assigned the leftover cluster whole, producing an 8-vertex
// partition against a documented cap of 7).
func TestPartitionPackingFragmentation(t *testing.T) {
	b := graph.NewBuilder(12)
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 4)
		for i := graph.VertexID(0); i < 4; i++ {
			for j := graph.VertexID(0); j < 4; j++ {
				if i != j {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	g := b.Build()
	pt, err := locality.Partition(g, 2, locality.Options{Balance: 1.15})
	if err != nil {
		t.Fatal(err)
	}
	st := partition.ComputeStats(g, pt)
	if st.MaxPart > 7 {
		t.Fatalf("max partition %d exceeds capacity 7 (balance cap violated): %v", st.MaxPart, st)
	}
	if st.MinPart < 5 {
		t.Errorf("split fallback left partitions unbalanced: %v", st)
	}
}

func TestParseSpec(t *testing.T) {
	for _, c := range []struct {
		spec, name string
	}{
		{"hash", "hash"},
		{"range", "range"},
		{"locality", "locality"},
		{"locality:seed=9,rounds=12,balance=1.2,refine=-1", "locality"},
	} {
		p, err := locality.ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", c.spec, p.Name(), c.name)
		}
	}
	for _, bad := range []string{
		"", "metis", "hash:seed=1", "range:x", "locality:seed", "locality:seed=abc",
		"locality:nope=1",
	} {
		if _, err := locality.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// The parsed locality partitioner must behave like the direct call.
	g, _, err := gen.Planted(gen.PlantedConfig{N: 500, K: 2, IntraDeg: 4, InterDeg: 0.2, Seed: 3, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := locality.ParseSpec("locality:seed=5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := locality.Partition(g, 2, locality.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Part, want.Part) {
		t.Fatal("ParseSpec(locality:seed=5) disagrees with Partition(Options{Seed: 5})")
	}
}

// BenchmarkPartitionQuality measures partitioner quality (not just
// speed) on the planted clustered graph: boundary vertices, cut edges,
// and balance are reported as custom metrics, so the benchmark JSON
// artifacts record partition quality per commit alongside ns/op.
func BenchmarkPartitionQuality(b *testing.B) {
	g, _ := plantedFixture(b)
	const k = 4
	for _, bc := range []struct {
		name string
		part func() (*graph.Partitioning, error)
	}{
		{"hash", func() (*graph.Partitioning, error) { return graph.HashPartition(g, k) }},
		{"range", func() (*graph.Partitioning, error) { return graph.RangePartition(g, k) }},
		{"locality", func() (*graph.Partitioning, error) { return locality.Partition(g, k, locality.Options{}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var st partition.Stats
			run := func() {
				pt, err := bc.part()
				if err != nil {
					b.Fatal(err)
				}
				st = partition.ComputeStats(g, pt)
			}
			run() // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(st.BoundaryVertices), "boundary")
			b.ReportMetric(float64(st.CutEdges), "cutedges")
			b.ReportMetric(st.Balance, "balance")
		})
	}
}

// ExampleParseSpec documents the flag syntax.
func ExampleParseSpec() {
	p, _ := locality.ParseSpec("locality:seed=7")
	fmt.Println(p.Name())
	// Output: locality
}
