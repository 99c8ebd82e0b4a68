package dsr

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// TestHedgeDelay pins the deadline estimator: Max until every partition
// has enough samples, then the slowest partition's quantile clamped to
// [Min, Max].
func TestHedgeDelay(t *testing.T) {
	opt := HedgeOptions{Enabled: true, Percentile: 0.5, Min: time.Millisecond, Max: 50 * time.Millisecond}
	h := newHedgeState(nil, 2, opt)

	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("cold delay = %v, want Max", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(0, 2*time.Millisecond)
	}
	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("delay with one cold partition = %v, want Max", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(1, 4*time.Millisecond)
	}
	// The slowest partition (p1, ~4ms) governs; log-bucketing may round
	// up by one bucket (<= 6.25%).
	d := h.delay()
	if d < 4*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("warm delay = %v, want ~4ms (slowest partition's quantile)", d)
	}

	// Clamps: huge samples hit Max, tiny ones hit Min.
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(0, time.Second)
	}
	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("delay = %v, want Max clamp", d)
	}
	lo := newHedgeState(nil, 1, opt)
	for i := 0; i < hedgeMinSamples; i++ {
		lo.observe(0, 10*time.Microsecond)
	}
	if d := lo.delay(); d != time.Millisecond {
		t.Fatalf("delay = %v, want Min clamp", d)
	}

	// Defaults fill zeros.
	def := HedgeOptions{Enabled: true}.withDefaults()
	if def.Percentile != 0.99 || def.Min != time.Millisecond || def.Max != 100*time.Millisecond {
		t.Fatalf("bad defaults: %+v", def)
	}
}

// slowReplica delays every submit by a fixed amount — a deterministic
// straggler, unlike chaos's seeded delays.
type slowReplica struct {
	inner shard.Replica
	d     time.Duration
}

func (s *slowReplica) Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- shard.Reply) {
	time.Sleep(s.d)
	s.inner.Submit(h, tasks, replyc)
}
func (s *slowReplica) Summary(ctx context.Context) (wire.Summary, error) { return s.inner.Summary(ctx) }
func (s *slowReplica) Hello() wire.Hello                                 { return s.inner.Hello() }
func (s *slowReplica) Close() error                                      { return s.inner.Close() }

// newHedgedEngine builds a k-partition R=2 in-process replicated engine
// through the exported ConnectTransport hook: replica 0 of every
// partition answers promptly, replica 1 sleeps `slow` per submit.
func newHedgedEngine(t *testing.T, g *graph.Graph, k int, slow time.Duration, o Options) *Engine {
	t.Helper()
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := partition.Extract(g, pt)
	for _, sub := range subs {
		sub.Condensation(nil)
		sub.Index(nil)
	}
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		sub, pp := subs[p], p
		groups[p] = []shard.ReplicaDialer{
			func(context.Context) (shard.Replica, error) {
				return shard.NewLocalReplica(shard.New(pp, sub)), nil
			},
			func(context.Context) (shard.Replica, error) {
				return &slowReplica{inner: shard.NewLocalReplica(shard.New(pp, sub)), d: slow}, nil
			},
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), o)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	return e
}

// TestHedgedEngineDifferential: with one deterministically slow replica
// per partition and hedging armed, every answer must still match the
// whole-graph oracle, hedges must actually fire, and at least one hedge
// must win its race (the primary is 30ms slower than the deadline).
func TestHedgedEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const k, n = 3, 80
	g := randomGraph(rng, n, 2)
	reg := obs.NewRegistry()
	e := newHedgedEngine(t, g, k, 30*time.Millisecond, Options{Runtime: Runtime{
		Metrics: reg,
		Hedge:   HedgeOptions{Enabled: true, Percentile: 0.95, Min: time.Millisecond, Max: 2 * time.Millisecond},
	}})
	defer e.Close()

	for round := 0; round < 20; round++ {
		queries := make([]Query, 6)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)}
		}
		got, err := e.QueryBatchErr(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, q := range queries {
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("round %d query %d: got %v, oracle %v (S=%v T=%v)", round, i, got[i], want, q.S, q.T)
			}
		}
	}

	var hedges, wins uint64
	for p := 0; p < k; p++ {
		hedges += reg.Counter(obs.Name("dsr_hedges_total", "partition", p)).Load()
		wins += reg.Counter(obs.Name("dsr_hedge_wins_total", "partition", p)).Load()
	}
	if hedges == 0 {
		t.Fatal("no hedge ever fired despite a 30ms straggler and a 2ms deadline")
	}
	if wins == 0 {
		t.Fatal("no hedge ever won despite the sibling being 30ms faster")
	}
	if wins > hedges {
		t.Fatalf("hedge wins (%d) exceed hedges sent (%d)", wins, hedges)
	}
}

// TestHedgeIgnoredWithoutSiblings: enabling hedging on a transport with
// no sibling replicas (Build's loopback) must quietly disable it, not
// break queries.
func TestHedgeIgnoredWithoutSiblings(t *testing.T) {
	g := build(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	e, err := Build(g, Options{K: 3, Runtime: Runtime{Hedge: HedgeOptions{Enabled: true}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.hedge != nil {
		t.Fatal("hedge state exists on a sibling-less transport")
	}
	if !e.Query(V(0), V(5)) || e.Query(V(5), V(0)) {
		t.Fatal("wrong answers with hedging requested on loopback")
	}
}
