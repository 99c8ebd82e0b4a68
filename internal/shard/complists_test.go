package shard

import (
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/snapshot"
	"dsr/internal/wire"
)

// memberScan is the reference for a shard's per-component boundary
// lists: the global IDs of the members of component c that lie in vs
// (the partition's Exits or Entries), found by scanning the component's
// whole member list.
func memberScan(s *Shard, c int32, vs []int32) []uint32 {
	var out []uint32
	for _, v := range s.cond.Members(c) {
		if _, ok := slices.BinarySearch(vs, v); ok {
			out = append(out, uint32(s.sub.GlobalID(v)))
		}
	}
	return out
}

// referenceBoundary is the reference for one task's reported boundary
// vertices: search the condensation, then member-scan every visited
// component for exits (forward) or entries (backward).
func referenceBoundary(s *Shard, t wire.Task) []uint32 {
	var lseeds []int32
	for _, v := range t.Seeds {
		if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
			lseeds = append(lseeds, lv)
		}
	}
	vs := s.sub.Entries
	if t.Kind == wire.Forward {
		vs = s.sub.Exits
	}
	var out []uint32
	for _, c := range slices.Clone(s.bfs(lseeds, t.Kind == wire.Forward)) {
		out = append(out, memberScan(s, c, vs)...)
	}
	return out
}

// TestCompListsMatchMemberScan checks the precomputed per-component exit
// and entry lists against a member scan, component by component and
// through Run on random tasks, for shards built by New and restored by
// FromSnapshot, on a hash-partitioned random graph (mostly singleton
// components, nearly all boundary) and a locality-partitioned planted
// graph (a giant component per partition, a small boundary). The
// summary's boundary set is checked against a scan of the same lists.
func TestCompListsMatchMemberScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := graph.NewBuilder(400)
	for i := 0; i < 700; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(400)), graph.VertexID(rng.Intn(400)))
	}
	random := b.Build()
	planted, _, err := gen.Planted(gen.PlantedConfig{N: 2000, K: 4, IntraDeg: 4, InterDeg: 0.05, Seed: 5, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		part graph.Partitioner
	}{
		{"hash", random, graph.Hash()},
		{"locality", planted, locality.New(locality.Options{})},
	} {
		t.Run(c.name, func(t *testing.T) {
			const k = 4
			pt, err := c.part.Partition(c.g, k)
			if err != nil {
				t.Fatal(err)
			}
			n := c.g.NumVertices()
			for id := 0; id < k; id++ {
				fresh := New(id, partition.ExtractOne(c.g, pt, id))
				buf, err := snapshot.Encode(fresh.Snapshot(k, n, c.g.Fingerprint(), pt.Digest()))
				if err != nil {
					t.Fatal(err)
				}
				sn, err := snapshot.Decode(buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []*Shard{fresh, FromSnapshot(sn)} {
					checkCompLists(t, s, rng, n)
				}
			}
		})
	}
}

// checkCompLists compares one shard's lists, summary boundary and Run
// output with the member-scan references.
func checkCompLists(t *testing.T, s *Shard, rng *rand.Rand, n int) {
	t.Helper()
	for c := int32(0); c < int32(s.cond.N); c++ {
		if got, want := s.exits.row(c), memberScan(s, c, s.sub.Exits); !slices.Equal(got, want) {
			t.Fatalf("shard %d component %d: exits %v, member scan %v", s.ID(), c, got, want)
		}
		if got, want := s.entries.row(c), memberScan(s, c, s.sub.Entries); !slices.Equal(got, want) {
			t.Fatalf("shard %d component %d: entries %v, member scan %v", s.ID(), c, got, want)
		}
	}
	var boundary []uint32
	for lv := int32(0); lv < int32(s.NumVertices()); lv++ {
		_, en := slices.BinarySearch(s.sub.Entries, lv)
		_, ex := slices.BinarySearch(s.sub.Exits, lv)
		if en || ex {
			boundary = append(boundary, uint32(s.sub.GlobalID(lv)))
		}
	}
	if got := s.Summary().Boundary; !slices.Equal(got, boundary) {
		t.Fatalf("shard %d: summary boundary %v, scan %v", s.ID(), got, boundary)
	}
	reported := 0
	for q := 0; q < 100; q++ {
		task := wire.Task{Kind: wire.Forward, Query: uint32(q)}
		if q%2 == 1 {
			task.Kind = wire.Backward
		}
		for i := rng.Intn(8); i >= 0; i-- {
			task.Seeds = append(task.Seeds, int32(rng.Intn(n)))
		}
		got := slices.Clone(s.Run([]wire.Task{task})[0].Boundary)
		if want := referenceBoundary(s, task); !slices.Equal(got, want) {
			t.Fatalf("shard %d task %+v: Run reports %v, member scan %v", s.ID(), task, got, want)
		}
		reported += len(got)
	}
	if reported == 0 {
		t.Fatalf("shard %d: no task reached a boundary vertex; the check compared nothing", s.ID())
	}
}
