// Package dsr implements distributed set reachability: given a directed
// graph partitioned into k parts, Query(S, T) answers whether any source
// in S reaches any target in T. The engine follows the DSR decomposition
// from Gurajada & Theobald (SIGMOD 2016):
//
//  1. each partition is compressed into boundary-to-boundary summary
//     edges, which are stitched with the raw cross-partition edges into
//     a global boundary graph;
//  2. at query time, per-partition shards run local searches (forward
//     from S, backward from T) in parallel, and the coordinator finishes
//     with a single search over the small boundary graph.
//
// Any s->t path decomposes as s ~> x0 -> e1 ~> x1 -> ... ek ~> t, where
// each ~> stays inside one partition and each -> is a cross-partition
// edge. The forward local search finds x0, summary edges cover every
// ei ~> xi hop, cross edges cover xi -> e(i+1), and the backward local
// search marks ek; so the boundary search is exact, not approximate.
//
// The coordinator is graph-free: it never holds the full graph. Each
// shard compresses its own partition and ships the result — boundary
// vertices, entry→exit summary edges, outgoing cross-partition edges —
// as a boundary summary at connect time, and the coordinator stitches
// the k summaries into the boundary graph. Its resident state is
// therefore proportional to the boundary, not to the graph: partition
// interiors exist only inside the shards.
//
// Two constructors cover the two deployments, over the one transport,
// shard.Replicated. Build partitions a graph and runs everything in one
// process with one local replica per partition (shard.NewLocal; the
// shards still ship summaries — the same code path as the wire).
// Connect joins an existing fleet of shard servers over TCP, knowing
// nothing but their addresses: identity (vertex count, graph fingerprint,
// partitioning digest) comes from the handshake, structure from the
// shipped summaries, and the same QueryBatch path amortizes one
// round-trip per shard across an entire batch of queries.
//
// The coordinator holds no placement data either: every task batch is
// broadcast to all k shards with global vertex IDs, each shard runs the
// seeds it owns and reports how many that was, and the coordinator
// cross-checks those counts against the batch to detect uncovered seeds
// (a shard down, or a fleet that disagrees about placement).
package dsr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// parallelParts runs fn(p) for every partition p in [0, k) on a bounded
// pool and waits for all of them.
func parallelParts(k int, fn func(p int)) {
	workers := min(runtime.GOMAXPROCS(0), k)
	if workers <= 1 {
		for p := 0; p < k; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= k {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// Query pairs one source set with one target set for QueryBatch.
type Query struct {
	S, T []graph.VertexID
}

// qstate is the coordinator's per-query bookkeeping within one batch.
type qstate struct {
	seeds  []int32 // boundary components holding exits reached from S
	goals  []int32 // boundary components holding entries that reach T
	hit    bool    // some partition saw a local S ~> T path
	done   bool    // answered during assembly (trivial/overlap cases)
	ans    bool
	failed bool // coverage shortfall left the answer unproven

	// Coverage accounting for the broadcast protocol: the coordinator
	// expects every deduplicated in-range seed to be owned by exactly
	// one shard. expS/expT count what the batch shipped; gotS/gotT sum
	// the Owned counts the shards reported back. A shortfall means some
	// seed went unsearched — a dead partition, or a fleet that disagrees
	// about placement — and the query's `false` cannot be trusted.
	expS, expT int
	gotS, gotT int
}

// vset is an epoch-marked open-addressing set of vertex IDs, the
// coordinator's per-query dedup structure. Clearing is O(1) (epoch
// bump) and capacity is re-ensured before each query's inserts, so
// steady-state batches allocate nothing. Unlike a direct-mapped mark
// array it is sized to the query, not to the graph — the coordinator
// holds no O(n) state.
type vset struct {
	keys  []int32
	epoch []uint32
	cur   uint32
	mask  uint32
}

// begin clears the set and ensures capacity for n inserts (load factor
// <= 1/2, so probes terminate fast and `has` can stop at an empty slot).
func (s *vset) begin(n int) {
	need := 4
	for need < 2*n {
		need <<= 1
	}
	if need > len(s.keys) {
		s.keys = make([]int32, need)
		s.epoch = make([]uint32, need)
		s.mask = uint32(need - 1)
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 { // epoch wrapped: stale marks would alias, clear them
		clear(s.epoch)
		s.cur = 1
	}
}

// add inserts v, reporting whether it was absent.
func (s *vset) add(v int32) bool {
	i := (uint32(v) * 2654435761) & s.mask
	for {
		if s.epoch[i] != s.cur {
			s.epoch[i] = s.cur
			s.keys[i] = v
			return true
		}
		if s.keys[i] == v {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// has reports whether v is in the set.
func (s *vset) has(v int32) bool {
	i := (uint32(v) * 2654435761) & s.mask
	for {
		if s.epoch[i] != s.cur {
			return false
		}
		if s.keys[i] == v {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Engine answers set-reachability queries over a partitioned graph. It
// is the graph-free coordinator of the DSR decomposition: its resident
// state is the stitched boundary graph plus per-query scratch — never
// the full graph, never any placement data. Partition interiors live
// exclusively inside the shards, whether those are in-process (Build)
// or remote servers (Connect).
type Engine struct {
	n  int // vertex count of the source graph, from build or handshake
	k  int // partition count
	bg *boundaryGraph
	tr shard.Transport

	mu     sync.Mutex // serializes query rounds: shards hold per-partition scratch
	closed bool

	// Reusable per-round scratch, safe under mu. A round fully drains
	// the reply channel, so all of this — including the seed arena the
	// shards read from — is quiescent between rounds.
	replyc chan shard.Reply
	tset   *vset // per-query T membership + dedup
	sset   *vset // per-query S dedup

	tasks []wire.Task // the round's batch, broadcast to every shard
	arena []int32     // seed storage for the whole round; tasks alias it

	qs     []qstate
	single [1]Query // reusable batch for Query

	// Hedging. hedge and hedgec are nil unless hedging is enabled on a
	// transport with sibling replicas; hedged replies arrive on their
	// own channel so a duplicate can never be mistaken for a primary.
	// pround is the fan-in's per-partition ledger, reused across rounds.
	hedge  *hedgeState
	hedgec chan shard.Reply
	pround []partRound
	// stale marks the round scratch (tasks, arena, both reply channels)
	// as still owned by straggler replies the last hedged round stopped
	// waiting for; the next round must start from fresh memory.
	stale bool

	bvisit *partition.Marks // boundary-BFS visited marks, per component
	bgoal  *partition.Marks // boundary-BFS goal marks, per component
	bqueue []int32          // boundary-BFS queue of components

	// Telemetry. met's instruments are nil (no-op) without a registry;
	// trace is engine-owned scratch reused across batches (safe under
	// mu), so per-query tracing allocates nothing at steady state.
	met   engineMetrics
	trace obs.Trace
	slow  time.Duration // slow-query log threshold, 0 disables
	log   *obs.Logger

	// wantTiming arms the wire-level trace flag: every task batch then
	// asks its shard to self-measure and footer its reply, feeding the
	// net-vs-server split (metrics and slow-query sub-spans). On when
	// either consumer exists — a registry or a slow-query threshold.
	wantTiming bool
	batchID    uint64 // round counter; the wire batch ID (starts at 1)
}

// Options configures Build.
type Options struct {
	// K is the partition count. Ignored when Partitioning is set (it
	// carries its own), except that a non-zero K must agree with it.
	K int
	// Partitioner is the partitioning strategy — graph.Hash(),
	// graph.Range(), or locality.New(opts). Nil means graph.Hash().
	Partitioner graph.Partitioner
	// Partitioning, if non-nil, supplies a precomputed vertex-to-
	// partition assignment instead of a strategy. Only K and Part are
	// consulted; the Entry/Exit boundary marks are recomputed from the
	// edge set, so a hand-rolled partitioning cannot smuggle in marks
	// that disagree with the graph.
	Partitioning *graph.Partitioning
	Runtime
}

// Runtime holds the knobs every engine constructor shares, whatever
// the deployment: where telemetry goes and whether to hedge. The zero
// value disables all of it.
type Runtime struct {
	// Metrics, if non-nil, receives coordinator and transport telemetry
	// (see the catalog in README.md): query latency histograms,
	// per-partition RPC counters, replica retry/failover/redial counts.
	// Nil disables instrumentation at zero cost: every instrument
	// degrades to a no-op.
	Metrics *obs.Registry
	// Log, if non-nil, receives build/connect progress — one line per
	// shard summary fetched, one for the stitched result — and
	// slow-query traces. Nil logs nothing.
	Log *obs.Logger
	// SlowQuery, if positive, logs a structured span trace (at WARN) for
	// every batch that takes longer end to end. 0 disables.
	SlowQuery time.Duration
	// Hedge configures hedged shard requests: when a round waits past a
	// high quantile of a partition's usual latency, the batch is re-sent
	// to an idle sibling replica and the first reply wins. Only
	// effective when some partition has two or more replicas; ignored
	// (with a warning) otherwise, e.g. under Build.
	Hedge HedgeOptions
}

// Build partitions g and builds an in-process engine over it: one local
// replica per partition (shard.NewLocal), each of which compresses its
// partition and ships a boundary summary exactly as a remote shard
// would — Build and Connect share the transport and the
// summary-stitching path; only where the replicas live differs.
func Build(g *graph.Graph, o Options) (*Engine, error) {
	var pt *graph.Partitioning
	var err error
	if o.Partitioning != nil {
		if o.K != 0 && o.K != o.Partitioning.K {
			return nil, fmt.Errorf("dsr: Options.K = %d conflicts with Partitioning.K = %d", o.K, o.Partitioning.K)
		}
		if len(o.Partitioning.Part) != g.NumVertices() {
			return nil, fmt.Errorf("dsr: partitioning covers %d vertices, graph has %d", len(o.Partitioning.Part), g.NumVertices())
		}
		labels := o.Partitioning.Part
		pt, err = graph.PartitionWith(g, o.Partitioning.K, func(v graph.VertexID, _, _ int) int32 { return labels[v] })
	} else {
		p := o.Partitioner
		if p == nil {
			p = graph.Hash()
		}
		pt, err = p.Partition(g, o.K)
	}
	if err != nil {
		return nil, err
	}
	subs, _ := partition.Extract(g, pt)
	shards := make([]*shard.Shard, len(subs))
	for i, s := range subs {
		shards[i] = shard.New(i, s)
	}
	tr, err := shard.NewLocal(shards)
	if err != nil {
		return nil, err
	}
	e, err := connect(context.Background(), tr, pt.K, g.NumVertices(), o.Runtime)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return e, nil
}

// ClusterSpec describes an existing fleet of shard servers for Connect.
// It carries addresses and optional expectations — no graph: everything
// structural comes from the fleet itself.
type ClusterSpec struct {
	// Groups lists one address spec per partition, in partition order.
	// Groups[i] may name several interchangeable replica servers
	// separated by '|' ("host1:7000|host2:7000"); with replicas the
	// coordinator routes each round to a healthy one, retries on a
	// sibling when a replica fails mid-query, and redials dead replicas,
	// so a partition is only unavailable when every replica is down.
	// A partition with a single address is still redialed after its
	// server fails, so a restarted shard is re-adopted.
	Groups []string
	// ExpectGraph, if non-zero, pins the graph fingerprint
	// (graph.Fingerprint): any shard built from a different edge set is
	// refused at dial time. Zero trusts the fleet's own cross-check.
	ExpectGraph uint64
	// ExpectDigest, if non-zero, pins the partitioning digest
	// (graph.Partitioning.Digest) the same way.
	ExpectDigest uint64
	Runtime
}

// Connect joins an existing shard fleet and builds the graph-free
// coordinator over it. The coordinator never sees the graph: shard
// identity (vertex count, graph fingerprint, partitioning digest) comes
// from the TCP handshake, the boundary structure from the summaries
// every shard ships on request, and the k summaries are stitched into
// the boundary graph locally. Shards that disagree with each other
// about the deployment are refused with a *MismatchError.
//
// ctx bounds connecting — dialing, handshakes, and the summary fetch —
// and cancels in-flight redials when the engine is closed; it does not
// bound later queries.
func Connect(ctx context.Context, spec ClusterSpec) (*Engine, error) {
	if len(spec.Groups) == 0 {
		return nil, fmt.Errorf("dsr: no shard addresses")
	}
	groups, err := shard.ParseGroups(spec.Groups)
	if err != nil {
		return nil, err
	}
	tr, err := shard.DialReplicated(ctx, groups, -1, spec.ExpectGraph, spec.ExpectDigest,
		shard.ReplicatedOptions{Metrics: spec.Metrics})
	if err != nil {
		return nil, err
	}
	e, err := connect(ctx, tr, len(groups), -1, spec.Runtime)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return e, nil
}

// ConnectTransport builds the coordinator over an already-constructed
// transport — the hook for embedders (the serving layer's harnesses,
// chaos rigs, benchmarks) that assemble their own replica fleets via
// shard.NewReplicated, shard.NewLocal, or shard.Dial. k is the
// partition count tr serves; n >= 0 pins the global vertex count, n < 0
// derives it from the shards' handshake identities (which fails for
// transports whose replicas present none). Only o.Runtime is consulted.
// On success the engine owns tr (Close closes it); on error the caller
// still owns it.
func ConnectTransport(ctx context.Context, tr shard.Transport, k, n int, o Options) (*Engine, error) {
	return connect(ctx, tr, k, n, o.Runtime)
}

// connect is the shared back half of Build and Connect: fetch every
// shard's boundary summary over tr, cross-check the fleet's handshake
// identities against each other, stitch, and wire the engine. n >= 0
// pins the global vertex count (transports without a handshake, e.g.
// in-process shards); n < 0 derives it from the hellos.
func connect(ctx context.Context, tr shard.Transport, k, n int, rt Runtime) (*Engine, error) {
	infos := make([]shard.SummaryInfo, k)
	errs := make([]error, k)
	sumFetch := rt.Metrics.Histogram("dsr_summary_fetch_ns")
	parallelParts(k, func(p int) {
		t0 := time.Now()
		infos[p], errs[p] = tr.Summary(ctx, p)
		sumFetch.ObserveSince(t0)
		if errs[p] == nil {
			s := &infos[p].Summary
			rt.Log.Infof("shard %d/%d: summary received (%d boundary vertices, %d summary edges, %d cross edges)",
				p+1, k, len(s.Boundary), len(s.Edges), len(s.Cross))
		}
	})
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dsr: shard %d summary: %w", p, err)
		}
	}

	// Cross-check: every shard that presented a handshake identity must
	// agree with every other. Shards without one (in-process replicas
	// report a zero Hello) opt out; zero fingerprints/digests mean "not
	// computed" and skip that field, mirroring the handshake itself.
	ref := -1
	for p := range infos {
		h := infos[p].Hello
		if h.NumShards == 0 {
			continue
		}
		if ref < 0 {
			ref = p
			continue
		}
		rh := infos[ref].Hello
		switch {
		case h.NumVertices != rh.NumVertices:
			return nil, &MismatchError{Field: "vertex count", PartA: ref, PartB: p,
				A: uint64(rh.NumVertices), B: uint64(h.NumVertices)}
		case h.Graph != 0 && rh.Graph != 0 && h.Graph != rh.Graph:
			return nil, &MismatchError{Field: "graph fingerprint", PartA: ref, PartB: p, A: rh.Graph, B: h.Graph}
		case h.Partitioning != 0 && rh.Partitioning != 0 && h.Partitioning != rh.Partitioning:
			return nil, &MismatchError{Field: "partitioning digest", PartA: ref, PartB: p, A: rh.Partitioning, B: h.Partitioning}
		}
	}
	if n < 0 {
		if ref < 0 {
			return nil, fmt.Errorf("dsr: no shard reported its identity; cannot derive the vertex count")
		}
		n = int(infos[ref].Hello.NumVertices)
	}
	// Pin the verified fleet identity on the transport, so every future
	// redial of an individual replica is held to what the fleet reported
	// at connect time — not just to what the caller chose to expect.
	if r, ok := tr.(*shard.Replicated); ok && ref >= 0 {
		r.Pin(shard.Expect{
			NumVertices: n,
			Graph:       infos[ref].Hello.Graph,
			Part:        infos[ref].Hello.Partitioning,
		})
	}
	sums := make([]wire.Summary, k)
	edges := 0
	for p := range infos {
		sums[p] = infos[p].Summary
		edges += len(sums[p].Edges) + len(sums[p].Cross)
	}
	bg, err := stitchBoundary(n, sums)
	if err != nil {
		return nil, err
	}
	rt.Log.Infof("boundary graph stitched: %d vertices, %d edges, %d components, %d coordinator-resident bytes",
		bg.nb, edges, bg.numComps(), bg.residentBytes())
	return newEngine(n, k, bg, tr, rt), nil
}

// newEngine wires a coordinator over an already-stitched boundary graph
// and transport.
func newEngine(n, k int, bg *boundaryGraph, tr shard.Transport, rt Runtime) *Engine {
	e := &Engine{
		n:      n,
		k:      k,
		bg:     bg,
		tr:     tr,
		replyc: make(chan shard.Reply, k),
		tset:   &vset{},
		sset:   &vset{},
		bvisit: partition.NewMarks(bg.numComps()),
		bgoal:  partition.NewMarks(bg.numComps()),
		pround: make([]partRound, k),
		met:    newEngineMetrics(rt.Metrics, k),
		slow:   rt.SlowQuery,
		log:    rt.Log,

		wantTiming: rt.Metrics != nil || rt.SlowQuery > 0,
	}
	if rt.Hedge.Enabled {
		if r, ok := tr.(*shard.Replicated); ok && hasSiblings(r) {
			e.hedge = newHedgeState(r, k, rt.Hedge)
			e.hedgec = make(chan shard.Reply, k)
		} else {
			rt.Log.Warnf("hedged requests enabled but no partition has sibling replicas; hedging disabled")
		}
	}
	e.met.partitions.Set(int64(k))
	e.met.boundaryVerts.Set(int64(bg.nb))
	e.met.residentBytes.Set(int64(bg.residentBytes()))
	return e
}

// hasSiblings reports whether some partition of r has two or more
// replicas — something a hedge could be sent to.
func hasSiblings(r *shard.Replicated) bool {
	for _, ph := range r.Health() {
		if ph.Replicas > 1 {
			return true
		}
	}
	return false
}

// Health reports the per-partition replica health — live replica
// counts and cumulative retry, failover, and redial totals since
// connect — one entry per partition, in-process engines included (one
// replica each). It returns nil only for transports other than
// shard.Replicated (test and benchmark wrappers).
func (e *Engine) Health() []shard.PartitionHealth {
	if r, ok := e.tr.(*shard.Replicated); ok {
		return r.Health()
	}
	return nil
}

// Endpoints describes the engine's shard endpoints — one entry per
// (partition, replica) with the dialed address, the metrics address
// each shard announced at handshake, and liveness; in-process replicas
// have no address. Nil for transports other than shard.Replicated. The
// fleet metrics aggregator feeds on this.
func (e *Engine) Endpoints() []shard.EndpointInfo {
	if r, ok := e.tr.(*shard.Replicated); ok {
		return r.Endpoints()
	}
	return nil
}

// NumPartitions returns the partition count.
func (e *Engine) NumPartitions() int { return e.k }

// NumBoundary returns the number of vertices in the boundary graph.
func (e *Engine) NumBoundary() int { return e.bg.nb }

// ResidentBytes reports the coordinator's per-graph resident footprint:
// the boundary ID -> component index and the condensed boundary graph. It scales with boundary size only — growing partition
// interiors (vertices and edges that never cross a partition border)
// leaves it unchanged, which is the point of the graph-free
// coordinator.
func (e *Engine) ResidentBytes() int { return e.bg.residentBytes() }

// Close shuts the transport down deterministically: in-process replica
// goroutines have exited (and TCP connections are closed with their
// reader goroutines joined, in-flight redials cancelled) by the time it
// returns. The engine must not be queried after Close.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.tr.Close()
}

// Query reports whether any source in S reaches any target in T
// (reachability is reflexive: a vertex reaches itself). Vertices outside
// the graph are ignored; an empty side yields false. Query panics if the
// engine has been closed — a silent false would be indistinguishable
// from a genuine negative answer — and on a transport failure that
// leaves the answer unknown (only possible on distributed engines; use
// QueryBatchErr for recoverable error handling there). A lost partition
// whose absence the query survived — it was proven reachable by the
// partitions that did answer — still returns normally.
func (e *Engine) Query(S, T []graph.VertexID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.single[0] = Query{S: S, T: T}
	err := e.queryBatch(e.single[:])
	e.single[0] = Query{}
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) || be.Failed[0] {
			panic(fmt.Sprintf("dsr: transport failure: %v", err))
		}
	}
	return e.qs[0].ans
}

// QueryBatch answers many queries in one shard round-trip each way: all
// local searches for the whole batch ship to each shard as a single
// task batch, and every boundary fan-in is answered before replying.
// Batching amortizes per-round transport overhead (one RPC per shard
// instead of one per query per shard) and is the intended way to drive
// distributed engines. It panics on closed engines and on any failure
// that leaves an answer unknown, like Query; QueryBatchErr returns the
// error instead.
func (e *Engine) QueryBatch(queries []Query) []bool {
	out, err := e.QueryBatchErr(queries)
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) || slices.Contains(be.Failed, true) {
			panic(fmt.Sprintf("dsr: transport failure: %v", err))
		}
	}
	return out
}

// QueryBatchErr is QueryBatch with transport failures reported as an
// error instead of a panic, and with partial-failure semantics: losing
// a partition fails only the queries that needed it, not the batch.
//
// When the error is a *BatchError, the returned answers are still
// valid for every query i with err.Failed[i] == false — queries whose
// seeds the surviving partitions fully covered, plus queries a dead
// partition could not change (a local hit or boundary path already
// proved them true; missing data only ever hides paths). Failed queries
// have no trustworthy answer and read false. A partition counts as dead
// whenever it delivered no usable reply, whether the connection dropped
// or the server reported an error; with replicas, only after every
// replica failed. Any other non-nil error — malformed content in a
// reply that did arrive, or a fleet that fails to cover the batch's
// seeds without any partition erroring — invalidates the whole batch
// and the answers are nil.
func (e *Engine) QueryBatchErr(queries []Query) ([]bool, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.queryBatch(queries)
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			return nil, err
		}
	}
	out := make([]bool, len(queries))
	for i := range out {
		out[i] = e.qs[i].ans
	}
	return out, err
}

// queryBatch runs one full coordinator round for the batch, leaving the
// per-query answers in e.qs[i].ans, and wraps it in telemetry: the span
// trace accumulates into engine-owned scratch (no allocation at steady
// state), batch counters and the latency histogram are updated, and a
// batch slower than the SlowQuery threshold logs its trace at WARN.
// Caller holds e.mu.
func (e *Engine) queryBatch(queries []Query) error {
	if e.closed {
		panic("dsr: query on closed Engine")
	}
	e.trace.Begin()
	root := e.trace.Add("query_batch", 0, 0, 0, -1, len(queries))
	err := e.runBatch(queries)
	total := e.trace.Since()
	e.trace.SetDur(root, total)
	e.met.batches.Inc()
	e.met.queries.Add(uint64(len(queries)))
	e.met.batchSize.Observe(int64(len(queries)))
	e.met.latency.Observe(int64(total))
	if err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			for _, f := range be.Failed {
				if f {
					e.met.failed.Inc()
				}
			}
		} else {
			// The whole round was poisoned: no answer is trustworthy.
			e.met.failed.Add(uint64(len(queries)))
		}
	}
	if e.slow > 0 && total > e.slow {
		e.met.slow.Inc()
		if e.log.Enabled(obs.LevelWarn) {
			e.log.Warnf("slow batch: %d queries took %v (threshold %v)\n%s",
				len(queries), total, e.slow, e.trace.String())
		}
	}
	return err
}

// runBatch is the coordinator round itself: assembly, broadcast, fan-in
// drain, boundary finish. Caller holds e.mu.
func (e *Engine) runBatch(queries []Query) error {
	n := graph.VertexID(e.n)
	for len(e.qs) < len(queries) {
		e.qs = append(e.qs, qstate{})
	}
	if e.stale {
		// Stragglers from the previous hedged round still hold the old
		// scratch: their submit goroutines may yet read the old task
		// arena and will deliver into the old (abandoned, buffered)
		// channels. Start this round on fresh memory and let them finish
		// against the old.
		e.stale = false
		e.tasks, e.arena = nil, nil
		e.replyc = make(chan shard.Reply, e.k)
		e.hedgec = make(chan shard.Reply, e.k)
	}
	e.tasks = e.tasks[:0]
	e.arena = e.arena[:0]

	asmStart := e.trace.Since()
	asm := e.trace.Add("assemble", 1, asmStart, 0, -1, 0)

	// Assembly: deduplicate every query's S and T into the shared seed
	// arena and emit one Forward and one Backward task per undecided
	// query, with global vertex IDs. There is no per-partition grouping
	// — the coordinator has no placement data; shards skip the seeds
	// they don't own. Task slices alias the arena; later appends may
	// grow it, but the abandoned backing array keeps the already-written
	// seeds, so earlier slices stay valid.
	for i := range queries {
		q := &queries[i]
		st := &e.qs[i]
		st.seeds, st.goals = st.seeds[:0], st.goals[:0]
		st.hit, st.done, st.ans, st.failed = false, false, false, false
		st.expS, st.expT, st.gotS, st.gotT = 0, 0, 0, 0
		e.tset.begin(len(q.T))
		tOff := len(e.arena)
		for _, t := range q.T {
			if t >= n || !e.tset.add(int32(t)) {
				continue
			}
			e.arena = append(e.arena, int32(t))
		}
		tSl := e.arena[tOff:len(e.arena):len(e.arena)]
		if len(tSl) == 0 {
			st.done = true
			continue
		}
		e.sset.begin(len(q.S))
		sOff := len(e.arena)
		for _, s := range q.S {
			if s >= n || !e.sset.add(int32(s)) {
				continue
			}
			if e.tset.has(int32(s)) {
				st.done, st.ans = true, true
				break
			}
			e.arena = append(e.arena, int32(s))
		}
		if st.done {
			continue
		}
		sSl := e.arena[sOff:len(e.arena):len(e.arena)]
		if len(sSl) == 0 {
			st.done = true
			continue
		}
		e.tasks = append(e.tasks,
			wire.Task{Kind: wire.Forward, Query: uint32(i), Seeds: sSl, Targets: tSl},
			wire.Task{Kind: wire.Backward, Query: uint32(i), Seeds: tSl})
		st.expS, st.expT = len(sSl), len(tSl)
	}
	e.trace.SetDur(asm, e.trace.Since()-asmStart)
	e.trace.SetN(asm, len(e.tasks))

	// Fan out: broadcast the one task batch to every shard. Which shard
	// owns which seed is the shards' business.
	var hdr wire.BatchHeader
	var tsub time.Time
	var roundStart time.Duration
	round := -1
	if len(e.tasks) > 0 {
		e.batchID++
		hdr = wire.BatchHeader{Trace: e.wantTiming, Batch: e.batchID}
		tsub = time.Now()
		roundStart = e.trace.Since()
		round = e.trace.Add("round", 1, roundStart, 0, -1, len(e.tasks))
		for p := 0; p < e.k; p++ {
			e.met.rpcs[p].Inc()
			e.tr.Submit(p, hdr, e.tasks, e.replyc)
		}
	}

	// Fan in: exits reached from S seed each query's boundary search;
	// entries that locally reach T are its goals; Owned counts feed the
	// coverage ledger. The reply channel is always drained in full — the
	// shared arena and shard result buffers must be quiescent before the
	// next round rewrites them — and failures are collected rather than
	// aborting the drain. A partition that answered nothing is a partial
	// failure; which queries that actually fails falls out of coverage
	// below. Malformed content inside a reply that did arrive (a shard
	// disagreeing about the batch shape or the boundary set) poisons the
	// whole round via terr: such a shard cannot be trusted retroactively.
	var perr []PartitionError
	var terr error
	if round >= 0 {
		perr, terr = e.drain(queries, hdr, tsub, roundStart)
		wait := e.trace.Since() - roundStart
		e.trace.SetDur(round, wait)
		e.met.faninWait.Observe(int64(wait))
		e.met.rounds.Inc()
	}
	if terr != nil {
		return terr
	}

	// Final pass: one BFS over the condensed boundary graph per
	// undecided query, then the coverage verdict. Queries that lost a
	// partition still run on whatever the survivors reported: results
	// can only be missing, never wrong, so a local hit or a boundary
	// path proves the query true regardless of shortfall — only a
	// `false` built on incomplete coverage is untrustworthy and fails.
	finStart := e.trace.Since()
	fin := e.trace.Add("finish", 1, finStart, 0, -1, 0)
	searches := 0
	anyFailed := false
	for i := range queries {
		st := &e.qs[i]
		if st.done {
			continue
		}
		if st.hit {
			st.ans = true
			continue
		}
		if len(st.seeds) > 0 && len(st.goals) > 0 {
			searches++
			if e.boundaryReach(st.seeds, st.goals) {
				st.ans = true
				continue
			}
		}
		if st.gotS < st.expS || st.gotT < st.expT {
			st.failed = true
			anyFailed = true
		}
	}
	finDur := e.trace.Since() - finStart
	e.trace.SetDur(fin, finDur)
	e.trace.SetN(fin, searches)
	e.met.finish.Observe(int64(finDur))
	if anyFailed && perr == nil {
		// Every shard answered, yet some seed was owned by none of them:
		// the fleet disagrees with itself about placement. That is not a
		// per-partition outage, it poisons the whole round.
		return fmt.Errorf("dsr: fleet does not cover the batch's seeds (inconsistent partitioning across shards)")
	}
	if perr != nil {
		slices.SortFunc(perr, func(a, b PartitionError) int { return a.Partition - b.Partition })
		failed := make([]bool, len(queries))
		for i := range queries {
			failed[i] = e.qs[i].failed
		}
		return &BatchError{Partitions: perr, Failed: failed}
	}
	return nil
}

// partRound is one partition's ledger within a fan-in round.
type partRound struct {
	done bool  // a successful reply (primary or hedge) was absorbed
	err  error // first failure seen; cleared once done
}

// drain is the round's fan-in: one primary reply per partition, drained
// in arrival order, each success absorbed into the per-query state and
// each failure recorded against its partition.
//
// With hedging armed, a round that outlasts the hedge deadline (a high
// quantile of primary latency — see hedgeState.delay) re-sends every
// partition still outstanding to an idle sibling replica, and per
// partition the first successful reply wins. Duplicates are dropped
// unabsorbed: local searches are idempotent reads, so the loser carries
// the same content, and replies from sets with siblings own their
// memory (the replicated transport copies them out of connection
// arenas), so an unread duplicate can't clobber anything. Without
// hedging the hedge channel is nil and there is no timer, so an
// unhedged round allocates nothing.
//
// The round returns the moment every partition is answered — that is
// the entire point of hedging: the coordinator must not wait for a
// straggling (or hung) replica once a sibling's answer is in hand.
// Replies still owed at that point become stragglers: they keep the
// round's buffered channels and task memory (e.stale makes the next
// round start fresh), their replicas stay marked busy inside the
// transport until they actually answer, and their content is never
// read. A partition only fails the round when neither its primary
// chain nor its hedge produced a reply.
//
// Every primary reply, failed or not, feeds dsr_rpc_latency_ns and the
// hedge deadline estimator: it is how long the partition's primary
// chain took to answer. Hedged replies feed neither — a hedge measures
// a sibling from a later start, not the partition's latency. Caller
// holds e.mu.
func (e *Engine) drain(queries []Query, hdr wire.BatchHeader, tsub time.Time, roundStart time.Duration) ([]PartitionError, error) {
	pr := e.pround
	clear(pr)
	var terr error
	remaining := e.k // primary replies still owed
	hedges := 0      // hedged replies still owed
	pending := e.k   // partitions not yet answered
	var timerC <-chan time.Time
	if e.hedge != nil {
		timer := time.NewTimer(e.hedge.delay())
		defer timer.Stop()
		timerC = timer.C
	}
	var thsub time.Time // when the hedges were sent

	handle := func(rep *shard.Reply, hedged bool) {
		p := rep.Shard
		t0 := tsub
		if hedged {
			t0 = thsub
		}
		rpcDur := time.Since(t0)
		if !hedged {
			e.met.rpcLat[p].Observe(int64(rpcDur))
			if e.hedge != nil {
				e.hedge.observe(p, rpcDur)
			}
		}
		if rep.Err != nil {
			e.met.rpcErrs[p].Inc()
			e.trace.Add("rpc", 2, roundStart, rpcDur, p, 0)
			if !pr[p].done && pr[p].err == nil {
				pr[p].err = rep.Err
			}
			return
		}
		if pr[p].done {
			e.trace.Add("rpc", 2, roundStart, rpcDur, p, 0)
			return // race lost; identical duplicate, drop it
		}
		e.observeReply(rep, rpcDur, roundStart)
		if err := e.absorb(queries, rep); err != nil {
			terr = err
		}
		pr[p].done = true
		pr[p].err = nil
		pending--
		if hedged {
			e.met.hedgeWins[p].Inc()
		}
	}

	for pending > 0 && (remaining > 0 || hedges > 0) {
		select {
		case rep := <-e.replyc:
			remaining--
			handle(&rep, false)
		case rep := <-e.hedgec:
			hedges--
			handle(&rep, true)
		case <-timerC:
			timerC = nil // the deadline fires at most once per round
			thsub = time.Now()
			for p := 0; p < e.k; p++ {
				if !pr[p].done {
					e.met.hedges[p].Inc()
					e.hedge.tr.SubmitHedge(p, hdr, e.tasks, e.hedgec)
					hedges++
				}
			}
		}
	}
	if remaining > 0 || hedges > 0 {
		e.stale = true // stragglers own this round's scratch now
	}
	var perr []PartitionError
	for p := range pr {
		if !pr[p].done && pr[p].err != nil {
			perr = append(perr, PartitionError{Partition: p, Err: pr[p].err})
		}
	}
	return perr, terr
}

// observeReply records a successful reply's frontier and timing
// telemetry. Caller holds e.mu.
func (e *Engine) observeReply(rep *shard.Reply, rpcDur time.Duration, roundStart time.Duration) {
	frontier := 0
	for ri := range rep.Results {
		frontier += len(rep.Results[ri].Boundary)
	}
	e.met.frontier.Observe(int64(frontier))
	e.trace.Add("rpc", 2, roundStart, rpcDur, rep.Shard, frontier)
	if rep.HasTiming {
		// Split the observed round trip into shard compute and
		// everything else (wire time, queueing in the transport, the
		// fan-in wait itself). The server's self-measured total is
		// clamped to the enclosing RPC duration: the two clocks are
		// different machines', and a server span exceeding its RPC
		// span would make the trace unreadable nonsense.
		server := time.Duration(rep.Timing.Total())
		if server > rpcDur {
			server = rpcDur
		}
		net := rpcDur - server
		e.met.rpcServer[rep.Shard].Observe(int64(server))
		e.met.rpcNet[rep.Shard].Observe(int64(net))
		e.trace.Add("server", 3, roundStart, server, rep.Shard, 0)
		e.trace.Add("net", 3, roundStart, net, rep.Shard, 0)
	}
}

// absorb merges one successful reply's content into the round's
// per-query state: Owned counts into the coverage ledger, local hits,
// and reached boundary vertices into each query's seed/goal lists. The
// returned error is the round-poisoning kind — a shard disagreeing
// about the batch identity, its shape, or the boundary set cannot be
// trusted retroactively. Caller holds e.mu.
func (e *Engine) absorb(queries []Query, rep *shard.Reply) error {
	if rep.Batch != 0 && rep.Batch != e.batchID {
		return fmt.Errorf("dsr: shard %d echoed batch %d during batch %d", rep.Shard, rep.Batch, e.batchID)
	}
	if len(rep.Results) != len(e.tasks) {
		return fmt.Errorf("dsr: shard %d answered %d results for a %d-task batch", rep.Shard, len(rep.Results), len(e.tasks))
	}
	var terr error
	for ri := range rep.Results {
		res := &rep.Results[ri]
		if int(res.Query) >= len(queries) {
			terr = fmt.Errorf("dsr: shard %d answered query %d of a %d-query batch", rep.Shard, res.Query, len(queries))
			continue
		}
		st := &e.qs[res.Query]
		// Coverage first, even when the answer is already known: the
		// ledger must reflect every reply that arrived.
		if res.Kind == wire.Forward {
			st.gotS += int(res.Owned)
		} else {
			st.gotT += int(res.Owned)
		}
		if st.hit {
			continue // answer already known; skip the moot bookkeeping
		}
		if res.Hit {
			st.hit = true
			continue
		}
		for _, v := range res.Boundary {
			c, ok := e.bg.index.lookup(v)
			if !ok {
				terr = fmt.Errorf("dsr: shard %d reported non-boundary vertex %d", rep.Shard, v)
				break
			}
			if res.Kind == wire.Forward {
				st.seeds = append(st.seeds, c)
			} else {
				st.goals = append(st.goals, c)
			}
		}
	}
	return terr
}

// boundaryReach runs a BFS over the condensed boundary graph from the
// seed components and reports whether it touches any goal component
// (goals must be non-empty). Components are numbered in reverse
// topological order, so one numbered below every goal cannot reach one
// and is never queued. The queue is saved back on every return path so
// its capacity survives early true-returns.
func (e *Engine) boundaryReach(seeds, goals []int32) bool {
	e.bgoal.Reset()
	lo := goals[0]
	for _, c := range goals {
		e.bgoal.Mark(c)
		lo = min(lo, c)
	}
	e.bvisit.Reset()
	queue := e.bqueue[:0]
	defer func() { e.bqueue = queue }()
	for _, c := range seeds {
		if e.bgoal.Seen(c) {
			return true
		}
		if c > lo && e.bvisit.Mark(c) {
			queue = append(queue, c)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, d := range e.bg.succ(queue[head]) {
			if d >= lo && e.bvisit.Mark(d) {
				if e.bgoal.Seen(d) {
					return true
				}
				queue = append(queue, d)
			}
		}
	}
	return false
}
