package dsr

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// vertexReach is the reference finish: a BFS over the vertex-level
// stitched boundary graph (stitchVertices, before condensing) from the
// seed dense ids, reporting whether it touches a goal dense id.
func vertexReach(bg *boundaryGraph, seeds, goals []int32) bool {
	goal := make([]bool, bg.NumVertices())
	for _, d := range goals {
		goal[d] = true
	}
	seen := make([]bool, bg.NumVertices())
	var queue []int32
	for _, d := range seeds {
		if goal[d] {
			return true
		}
		if !seen[d] {
			seen[d] = true
			queue = append(queue, d)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range bg.Out(queue[head]) {
			if !seen[w] {
				if goal[w] {
					return true
				}
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// compOf returns the component of dense id d of the vertex-level ref in
// the condensed bg stitched from the same summaries.
func compOf(bg, ref *boundaryGraph, d int32) int32 {
	c, ok := bg.index.lookup(ref.verts[d])
	if !ok {
		panic("boundary vertex missing from the condensed index")
	}
	return c
}

// condensedReach runs the engine's finish over the condensed bg for
// seeds and goals given as dense ids of the vertex-level ref.
func condensedReach(bg, ref *boundaryGraph, seeds, goals []int32) bool {
	e := &Engine{bg: bg, bvisit: partition.NewMarks(bg.numComps()), bgoal: partition.NewMarks(bg.numComps())}
	comps := func(ds []int32) []int32 {
		out := make([]int32, len(ds))
		for i, d := range ds {
			out[i] = compOf(bg, ref, d)
		}
		return out
	}
	return e.boundaryReach(comps(seeds), comps(goals))
}

// localSearch runs one query's forward and backward tasks on every
// shard, as a round would, and returns whether some shard saw a local
// S ~> T path, plus the dense ids in the vertex-level ref of the exits
// reached from S (seeds) and of the entries that reach T (goals).
func localSearch(t *testing.T, shards []*shard.Shard, ref *boundaryGraph, S, T []graph.VertexID) (hit bool, seeds, goals []int32) {
	t.Helper()
	ids := func(vs []graph.VertexID) []int32 {
		out := make([]int32, len(vs))
		for i, v := range vs {
			out[i] = int32(v)
		}
		return out
	}
	tasks := []wire.Task{
		{Kind: wire.Forward, Seeds: ids(S), Targets: ids(T)},
		{Kind: wire.Backward, Seeds: ids(T)},
	}
	for _, s := range shards {
		for _, r := range s.Run(tasks) {
			hit = hit || r.Hit
			for _, v := range r.Boundary {
				d, ok := ref.index.lookup(v)
				if !ok {
					t.Fatalf("shard %d reported non-boundary vertex %d", s.ID(), v)
				}
				if r.Kind == wire.Forward {
					seeds = append(seeds, d)
				} else {
					goals = append(goals, d)
				}
			}
		}
	}
	return hit, seeds, goals
}

// TestCondensedFinishDifferential checks the coordinator's finish over
// the condensed boundary graph against the vertex-level BFS it replaced
// and against the whole-graph oracle, on a hash-partitioned random graph
// and a locality-partitioned planted graph:
//
//   - on random boundary seed and goal sets (a third of them with a goal
//     drawn from a seed's own component), condensed == vertex-level;
//   - on random queries, with seeds and goals taken from the shards'
//     local searches, condensed == vertex-level, and the local hit or
//     that answer == the oracle == the engine's own answer.
func TestCondensedFinishDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	planted, _, err := gen.Planted(gen.PlantedConfig{N: 2000, K: 4, IntraDeg: 4, InterDeg: 0.05, Seed: 8, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		part graph.Partitioner
		maxQ int // largest S and T
	}{
		{"hash", randomGraph(rng, 400, 1.5), graph.Hash(), 2},
		{"locality", planted, locality.New(locality.Options{}), 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			const k = 4
			n := c.g.NumVertices()
			pt, err := c.part.Partition(c.g, k)
			if err != nil {
				t.Fatal(err)
			}
			subs, _ := partition.Extract(c.g, pt)
			shards := make([]*shard.Shard, k)
			sums := make([]wire.Summary, k)
			for p := range subs {
				shards[p] = shard.New(p, subs[p])
				sums[p] = shards[p].Summary()
			}
			ref, err := stitchVertices(n, sums)
			if err != nil {
				t.Fatal(err)
			}
			bg, err := stitchBoundary(n, sums)
			if err != nil {
				t.Fatal(err)
			}
			nb := bg.NumVertices()
			if nb == 0 || nb != len(ref.verts) || bg.numComps() >= nb {
				t.Fatalf("%d boundary vertices (%d before condensing) in %d components: nothing to condense", nb, len(ref.verts), bg.numComps())
			}
			members := make([][]int32, bg.numComps())
			for d := range ref.verts {
				cc := compOf(bg, ref, int32(d))
				members[cc] = append(members[cc], int32(d))
			}

			for trial := 0; trial < 500; trial++ {
				var seeds, goals []int32
				for i := rng.Intn(4); i >= 0; i-- {
					seeds = append(seeds, int32(rng.Intn(nb)))
				}
				for i := rng.Intn(4); i >= 0; i-- {
					goals = append(goals, int32(rng.Intn(nb)))
				}
				if trial%3 == 0 {
					m := members[compOf(bg, ref, seeds[0])]
					goals = append(goals, m[rng.Intn(len(m))])
				}
				if got, want := condensedReach(bg, ref, seeds, goals), vertexReach(ref, seeds, goals); got != want {
					t.Fatalf("seeds %v goals %v: condensed %v, vertex-level %v", seeds, goals, got, want)
				}
			}

			e, err := Build(c.g, Options{K: k, Partitioner: c.part})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			finished, sameComp, trues := 0, 0, 0
			for q := 0; q < 300; q++ {
				S, T := randomSet(rng, n, c.maxQ), randomSet(rng, n, c.maxQ)
				want := NaiveReach(c.g, S, T)
				if got := e.Query(S, T); got != want {
					t.Fatalf("query %v -> %v: engine %v, oracle %v", S, T, got, want)
				}
				hit, seeds, goals := localSearch(t, shards, ref, S, T)
				ans := hit
				if !hit && len(seeds) > 0 && len(goals) > 0 {
					finished++
					v := vertexReach(ref, seeds, goals)
					if cd := condensedReach(bg, ref, seeds, goals); cd != v {
						t.Fatalf("query %v -> %v: condensed %v, vertex-level %v", S, T, cd, v)
					}
					for _, s := range seeds {
						for _, g := range goals {
							if compOf(bg, ref, s) == compOf(bg, ref, g) {
								sameComp++
							}
						}
					}
					ans = v
				}
				if ans != want {
					t.Fatalf("query %v -> %v: local searches + vertex-level finish %v, oracle %v", S, T, ans, want)
				}
				if want {
					trues++
				}
			}
			if finished == 0 || sameComp == 0 || trues == 0 {
				t.Fatalf("weak check: %d finished queries, %d same-component seed/goal pairs, %d true answers", finished, sameComp, trues)
			}
		})
	}
}

// TestDenseIndexLookup is the dense index's property test: every
// boundary ID maps to its rank in the sorted boundary list, and 0, n-1,
// math.MaxUint32 and random non-boundary IDs miss. IDs sharing their low
// bits and the extreme keys 0 and MaxUint32 themselves index too.
func TestDenseIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, verts []uint32, misses []uint32) {
		t.Helper()
		ix := newDenseIndex(verts)
		if len(ix.slots) < 2*len(verts) {
			t.Fatalf("%s: %d slots for %d keys, load above 1/2", name, len(ix.slots), len(verts))
		}
		for d, v := range verts {
			if got, ok := ix.lookup(v); !ok || got != int32(d) {
				t.Fatalf("%s: lookup(%d) = %d, %v; want %d, true", name, v, got, ok, d)
			}
		}
		for _, v := range misses {
			if _, ok := slices.BinarySearch(verts, v); ok {
				continue
			}
			if got, ok := ix.lookup(v); ok {
				t.Fatalf("%s: lookup(%d) = %d for a non-boundary ID", name, v, got)
			}
		}
	}
	for _, nb := range []int{0, 1, 2, 3, 7, 100, 5000} {
		n := 4*nb + 3
		set := map[uint32]bool{}
		for len(set) < nb {
			set[uint32(1+rng.Intn(n-2))] = true // never 0 or n-1
		}
		verts := make([]uint32, 0, nb)
		for v := range set {
			verts = append(verts, v)
		}
		slices.Sort(verts)
		misses := []uint32{0, uint32(n - 1), math.MaxUint32}
		for i := 0; i < 1000; i++ {
			misses = append(misses, uint32(rng.Intn(n)), rng.Uint32())
		}
		check("random", verts, misses)
	}
	strided := make([]uint32, 4096)
	for i := range strided {
		strided[i] = uint32(i) << 12
	}
	check("strided", strided, []uint32{1, 1<<12 + 1, 4096 << 12})
	check("extremes", []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}, []uint32{2, math.MaxUint32 - 2})
}

// lyingReplica answers like the real replica it wraps, then appends one
// extra vertex to every reported boundary list.
type lyingReplica struct {
	shard.Replica
	extra uint32
}

func (l *lyingReplica) Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- shard.Reply) {
	ch := make(chan shard.Reply, 1)
	l.Replica.Submit(h, tasks, ch)
	rep := <-ch
	for i := range rep.Results {
		rep.Results[i].Boundary = append(slices.Clip(rep.Results[i].Boundary), l.extra)
	}
	replyc <- rep
}

// TestAbsorbRejectsNonBoundaryVertex: a shard reply naming a vertex
// outside the boundary set — an interior vertex, or an ID beyond the
// graph — must poison the whole round (no answers, and not a
// per-partition *BatchError), never be mapped to some boundary vertex.
func TestAbsorbRejectsNonBoundaryVertex(t *testing.T) {
	g := interiorGraph(rand.New(rand.NewSource(1)), 10, 0) // boundary: 9 and 10
	for _, extra := range []uint32{3, math.MaxUint32} {
		pt, err := graph.Range().Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		subs, _ := partition.Extract(g, pt)
		groups := make([][]shard.ReplicaDialer, 2)
		for p := range groups {
			sh := shard.New(p, subs[p])
			groups[p] = []shard.ReplicaDialer{func(context.Context) (shard.Replica, error) {
				r := shard.NewLocalReplica(sh)
				if p == 0 {
					return &lyingReplica{Replica: r, extra: extra}, nil
				}
				return r, nil
			}}
		}
		tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		e, err := ConnectTransport(t.Context(), tr, 2, g.NumVertices(), Options{})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		got, err := e.QueryBatchErr([]Query{{S: []graph.VertexID{0}, T: []graph.VertexID{19}}})
		var be *BatchError
		if err == nil || errors.As(err, &be) || got != nil || !strings.Contains(err.Error(), "reported non-boundary vertex") {
			t.Fatalf("extra vertex %d: answers %v, err %v; want a round-poisoning non-boundary error", extra, got, err)
		}
		e.Close()
	}
}
