package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dsr/internal/obs"
	"dsr/internal/wire"
)

// defaultReconnectEvery is how often the background loop retries dead
// replicas when ReplicatedOptions doesn't say otherwise.
const defaultReconnectEvery = time.Second

// ReplicatedOptions tunes the replica-aware transport.
type ReplicatedOptions struct {
	// ReconnectEvery is the period of the background loop that redials
	// dead replicas (every redial re-runs the full handshake, so a
	// replica that restarted wrong stays dead). 0 means the 1s default;
	// negative disables background reconnection entirely — dead
	// replicas are then only retried when their partition has no live
	// replica left.
	ReconnectEvery time.Duration
	// Metrics, if non-nil, receives the transport's failover telemetry:
	// per-partition retry/failover/redial counters, live-replica gauges,
	// and per-replica RPC latency histograms (see README.md). Health()
	// works either way — the counters it reads always exist.
	Metrics *obs.Registry
}

// counterOr binds name in reg, or returns a standalone counter when reg
// is nil — Replicated's failover counters must count regardless of
// whether the deployment exports metrics, because Health() reports them.
func counterOr(reg *obs.Registry, name string) *obs.Counter {
	if c := reg.Counter(name); c != nil {
		return c
	}
	return &obs.Counter{}
}

// Replicated is the replica-aware Transport: partition p is served by
// one of several interchangeable replicas. Submit routes each task
// batch to a healthy replica (rotating between them to spread load),
// and because local searches are idempotent — pure reads over an
// immutable subgraph — a batch whose send or receive fails mid-query
// is simply retried on a sibling replica. A replica that fails is
// marked dead and periodically redialed in the background; only when
// every replica of a partition fails within one Submit does the
// coordinator see an error Reply, and that Reply's Err details every
// replica's failure.
//
// A partition with exactly one replica — every partition of an
// in-process engine (NewLocal) and of a plain one-address-per-partition
// fleet (Dial) — has no sibling to fail over to, so Submit hands its
// batch straight to that replica: no goroutine, no copy of the results.
// A sole replica that failed is still marked dead when it is next
// needed, and redialed, so a restarted shard server is re-adopted.
type Replicated struct {
	sets []*replicaSet
	opts ReplicatedOptions

	// ctx is the transport's lifetime: cancelled by Close so background
	// redials (reconnect loop, in-query last resorts) abort promptly
	// instead of finishing a doomed dial against a dead deployment.
	ctx    context.Context
	cancel context.CancelFunc

	loopWG sync.WaitGroup // background reconnect loop
	subWG  sync.WaitGroup // in-flight Submit goroutines

	mu     sync.Mutex
	closed bool
}

// Expect pins the fleet identity every redialed replica must present. A
// graph-free coordinator learns the deployment's vertex count, graph
// fingerprint, and partitioning digest from the fleet itself at connect
// time; pinning them makes every later redial re-verify that a restarted
// replica still serves the same deployment. NumVertices < 0 skips the
// vertex-count check; a zero fingerprint or digest skips that check
// (matching the dial-time handshake rules). Replicas with no handshake
// identity at all (hello NumShards == 0, i.e. in-process replicas) are
// exempt.
type Expect struct {
	NumVertices int
	Graph       uint64
	Part        uint64
}

// check validates a replica's dial-time hello against the pin.
func (e *Expect) check(part int, h wire.Hello) error {
	if e == nil || h.NumShards == 0 {
		return nil
	}
	if e.NumVertices >= 0 && int(h.NumVertices) != e.NumVertices {
		return fmt.Errorf("shard %d: replica serves %d vertices, fleet pinned %d", part, h.NumVertices, e.NumVertices)
	}
	if e.Graph != 0 && h.Graph != 0 && h.Graph != e.Graph {
		return fmt.Errorf("shard %d: replica built from a different graph (fingerprint %#x, fleet pinned %#x)", part, h.Graph, e.Graph)
	}
	if e.Part != 0 && h.Partitioning != 0 && h.Partitioning != e.Part {
		return fmt.Errorf("shard %d: replica built with a different partitioning (digest %#x, fleet pinned %#x)", part, h.Partitioning, e.Part)
	}
	return nil
}

// replicaSet is one partition's replicas: dialers are fixed at
// construction, live[i] is the connected Replica for dialers[i] or nil
// while it is dead, and lastErr[i] remembers why it died (for the
// all-replicas-failed error detail).
type replicaSet struct {
	part    int
	dialers []ReplicaDialer

	mu      sync.Mutex
	live    []Replica
	lastErr []error
	busy    []bool // replica i is serving an in-flight batch or summary fetch
	rr      int    // round-robin cursor over replica indices
	closed  bool
	expect  *Expect // pinned fleet identity, nil until Pin

	// Endpoint identity as last observed at a successful dial: addrs[i]
	// is replica i's dialed address and hellos[i] the hello it presented
	// — kept even while the replica is dead, so Endpoints() can still
	// name what used to serve the slot. Empty for replicas that don't
	// expose an endpoint (in-process ones). Guarded by mu.
	addrs  []string
	hellos []wire.Hello

	dialMu sync.Mutex // serializes redials so loop and Submit don't race a dial

	// Failover telemetry. The counters are never nil (counterOr) so
	// Health() reports real numbers even without a registry; liveG and
	// lat may be nil instruments (no-ops) when metrics are disabled.
	retries   *obs.Counter     // shard_retries_total{partition=p}
	failovers *obs.Counter     // shard_failovers_total{partition=p}
	redials   *obs.Counter     // shard_redials_total{partition=p}
	liveG     *obs.Gauge       // shard_replicas_live{partition=p}
	lat       []*obs.Histogram // shard_rpc_latency_ns{partition=p,replica=i}
}

// NewReplicated dials every replica of every partition and returns the
// transport. ctx bounds only the construction dials; the transport's own
// lifetime is governed by Close. Construction requires at least one live
// replica per partition (a partition with zero replicas up cannot answer
// anything); replicas that fail to dial start out dead and are retried
// by the reconnect loop. groups[p] lists partition p's dialers.
func NewReplicated(ctx context.Context, groups [][]ReplicaDialer, opts ReplicatedOptions) (*Replicated, error) {
	if len(groups) == 0 {
		return nil, errors.New("shard: no replica groups")
	}
	r := &Replicated{
		sets: make([]*replicaSet, len(groups)),
		opts: opts,
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for p, dialers := range groups {
		if len(dialers) == 0 {
			r.shutdown()
			return nil, fmt.Errorf("shard: partition %d has no replicas", p)
		}
		rs := &replicaSet{
			part:      p,
			dialers:   dialers,
			live:      make([]Replica, len(dialers)),
			lastErr:   make([]error, len(dialers)),
			busy:      make([]bool, len(dialers)),
			retries:   counterOr(opts.Metrics, obs.Name("shard_retries_total", "partition", p)),
			failovers: counterOr(opts.Metrics, obs.Name("shard_failovers_total", "partition", p)),
			redials:   counterOr(opts.Metrics, obs.Name("shard_redials_total", "partition", p)),
			liveG:     opts.Metrics.Gauge(obs.Name("shard_replicas_live", "partition", p)),
			lat:       make([]*obs.Histogram, len(dialers)),
			addrs:     make([]string, len(dialers)),
			hellos:    make([]wire.Hello, len(dialers)),
		}
		for i := range dialers {
			rs.lat[i] = opts.Metrics.Histogram(obs.Name("shard_rpc_latency_ns", "partition", p, "replica", i))
		}
		nlive := 0
		for i, dial := range dialers {
			rep, err := dial(ctx)
			if err != nil {
				rs.lastErr[i] = err
				continue
			}
			rs.live[i] = rep
			rs.recordEndpointLocked(i, rep)
			nlive++
		}
		rs.liveG.Set(int64(nlive))
		r.sets[p] = rs
		if nlive == 0 {
			r.shutdown()
			return nil, fmt.Errorf("shard: partition %d: no replica reachable: %v", p, rs.describeFailures())
		}
	}
	every := opts.ReconnectEvery
	if every == 0 {
		every = defaultReconnectEvery
	}
	if every > 0 {
		r.loopWG.Add(1)
		go r.reconnectLoop(every)
	}
	return r, nil
}

// Dial connects to a deployment with one shard server per partition
// (addrs[i] must serve shard i), verifying each hello against the
// expected deployment shape, and returns the replica-aware transport
// with one replica per partition. ctx bounds the dials. wantVertices <
// 0 skips the vertex-count check; wantGraph is the caller's graph
// fingerprint and wantPart its partitioning digest — for either, 0
// skips the check (either side not computing one opts out, since a
// server may also send 0).
func Dial(ctx context.Context, addrs []string, wantVertices int, wantGraph, wantPart uint64) (*Replicated, error) {
	groups := make([][]string, len(addrs))
	for i, addr := range addrs {
		groups[i] = []string{addr}
	}
	return DialReplicated(ctx, groups, wantVertices, wantGraph, wantPart, ReplicatedOptions{})
}

// DialReplicated connects to a replicated TCP deployment: groups[p]
// lists the dsr-shard addresses serving partition p (any of them may be
// down, as long as each partition has at least one up). ctx bounds the
// construction dials. Handshake expectations follow Dial: wantVertices
// < 0 skips the vertex-count check, 0 skips either digest.
func DialReplicated(ctx context.Context, groups [][]string, wantVertices int, wantGraph, wantPart uint64, opts ReplicatedOptions) (*Replicated, error) {
	met := newNetMetrics(opts.Metrics, "net_client")
	dialers := make([][]ReplicaDialer, len(groups))
	for p, addrs := range groups {
		dialers[p] = make([]ReplicaDialer, len(addrs))
		for i, addr := range addrs {
			dialers[p][i] = tcpReplicaDialer(p, addr, len(groups), wantVertices, wantGraph, wantPart, met)
		}
	}
	return NewReplicated(ctx, dialers, opts)
}

// Pin stores the fleet identity every future redial must re-verify and
// sweeps currently-live replicas against it, killing any that mismatch
// (the reconnect loop will redial them, and the redial re-verifies). A
// graph-free coordinator calls this right after cross-checking the
// hellos it collected at connect time, closing the window where a
// replica restarted from a different deployment could rejoin unnoticed.
func (r *Replicated) Pin(e Expect) {
	for _, rs := range r.sets {
		rs.pin(&e)
	}
}

func (rs *replicaSet) pin(e *Expect) {
	rs.mu.Lock()
	rs.expect = e
	var bad []Replica
	for i, rep := range rs.live {
		if rep == nil {
			continue
		}
		if err := e.check(rs.part, rep.Hello()); err != nil {
			rs.live[i] = nil
			rs.lastErr[i] = err
			bad = append(bad, rep)
		}
	}
	rs.updateLiveLocked()
	rs.mu.Unlock()
	for _, rep := range bad {
		rep.Close()
	}
}

// NumShards returns the partition count.
func (r *Replicated) NumShards() int { return len(r.sets) }

// PartitionHealth is one partition's replica-health snapshot: how many
// replicas are configured and live, and the cumulative failover activity
// since the transport was built.
type PartitionHealth struct {
	Partition int    // partition index
	Replicas  int    // configured replica count
	Live      int    // currently-connected replicas
	Retries   uint64 // batches re-run on a sibling after a replica failed
	Failovers uint64 // live->dead transitions
	Redials   uint64 // dial attempts against dead endpoints
}

// Health snapshots every partition's replica health. It works whether or
// not the transport was built with a metrics registry — the counters it
// reads always count.
func (r *Replicated) Health() []PartitionHealth {
	out := make([]PartitionHealth, len(r.sets))
	for p, rs := range r.sets {
		rs.mu.Lock()
		live := 0
		for _, rep := range rs.live {
			if rep != nil {
				live++
			}
		}
		rs.mu.Unlock()
		out[p] = PartitionHealth{
			Partition: p,
			Replicas:  len(rs.dialers),
			Live:      live,
			Retries:   rs.retries.Load(),
			Failovers: rs.failovers.Load(),
			Redials:   rs.redials.Load(),
		}
	}
	return out
}

// NumLive returns how many of partition p's replicas are currently
// connected — observability for tests and operators, not a correctness
// signal (a "live" replica may die on next use).
func (r *Replicated) NumLive(p int) int {
	rs := r.sets[p]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, rep := range rs.live {
		if rep != nil {
			n++
		}
	}
	return n
}

// Submit routes the batch to a healthy replica of partition p,
// retrying siblings on failure; the final Reply (success from whichever
// replica answered, or an all-replicas-failed error) is delivered on
// replyc. Each Submit runs in its own goroutine so the coordinator's
// fan-out never blocks on a slow or dying replica — except on a
// partition whose sole replica is live, which gets the batch directly.
func (r *Replicated) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		replyc <- Reply{Shard: p, Err: ErrClosed}
		return
	}
	r.subWG.Add(1)
	r.mu.Unlock()
	if rep := r.sets[p].sole(); rep != nil {
		rep.Submit(h, tasks, replyc)
		r.subWG.Done()
		return
	}
	go func() {
		defer r.subWG.Done()
		replyc <- r.sets[p].run(r.ctx, h, tasks, false)
	}()
}

// ErrNoIdleSibling is SubmitHedge's fail-fast answer when partition p
// has no live replica sitting idle: every replica is either serving an
// in-flight batch (most likely the very submit being hedged) or dead.
// Hedging is a latency tool, not an availability tool, so this is not
// an outage signal — the primary submit still owns retries and redials.
var ErrNoIdleSibling = errors.New("shard: no idle sibling replica to hedge on")

// SubmitHedge re-sends a round's task batch for partition p to an idle
// sibling replica — one not currently serving any batch — implementing
// the coordinator's hedged requests. It is sound because local searches
// are idempotent reads, and safe concurrently with an in-flight Submit
// on the same partition: a busy replica is never picked, so a hedge can
// never interleave two batches on one replica connection (whose decode
// buffers hold one reply at a time). Unlike Submit it never redials
// dead endpoints and never waits: with no idle live sibling the Reply
// carries ErrNoIdleSibling immediately, as it always does on a
// partition with one replica. The caller must be draining replyc for
// both the primary and the hedged reply — both arrive.
func (r *Replicated) SubmitHedge(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		replyc <- Reply{Shard: p, Err: ErrClosed}
		return
	}
	if len(r.sets[p].dialers) == 1 {
		r.mu.Unlock()
		replyc <- Reply{Shard: p, Err: ErrNoIdleSibling}
		return
	}
	r.subWG.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.subWG.Done()
		replyc <- r.sets[p].run(r.ctx, h, tasks, true)
	}()
}

// Endpoints describes every (partition, replica) endpoint: the address
// each replica was dialed at, the metrics address it announced in its
// hello, and whether it is currently live. Dead replicas keep the
// identity they last presented, so a fleet view can still name them.
func (r *Replicated) Endpoints() []EndpointInfo {
	var eps []EndpointInfo
	for _, rs := range r.sets {
		rs.mu.Lock()
		for i := range rs.dialers {
			eps = append(eps, EndpointInfo{
				Partition:   rs.part,
				Replica:     i,
				Addr:        rs.addrs[i],
				MetricsAddr: rs.hellos[i].MetricsAddr,
				Live:        rs.live[i] != nil,
			})
		}
		rs.mu.Unlock()
	}
	return eps
}

// Summary fetches partition p's boundary summary with the same failover
// as Submit: healthy replicas in round-robin order, dead ones redialed
// as a last resort, each failure marking that replica dead — so a
// replica dying mid-fetch is transparently replaced by a sibling. The
// SummaryInfo pairs the summary with the serving replica's dial-time
// hello. ctx bounds the whole attempt chain.
func (r *Replicated) Summary(ctx context.Context, p int) (SummaryInfo, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return SummaryInfo{}, ErrClosed
	}
	r.subWG.Add(1)
	r.mu.Unlock()
	defer r.subWG.Done()
	return r.sets[p].summary(ctx)
}

// Close stops the reconnect loop, closes every live replica (failing
// any in-flight batch, whose Submit goroutine then delivers an error
// Reply), and waits for all transport-owned goroutines. Safe to call
// more than once.
func (r *Replicated) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.shutdown()
	return nil
}

func (r *Replicated) shutdown() {
	r.cancel() // aborts in-flight redials along with the reconnect loop
	for _, rs := range r.sets {
		if rs != nil {
			rs.closeAll()
		}
	}
	r.loopWG.Wait()
	r.subWG.Wait()
}

// reconnectLoop sweeps dead replicas every period until Close. The
// timer restarts after each sweep, so a sweep slowed by dials against a
// dead host is still followed by a full pause, not another sweep.
func (r *Replicated) reconnectLoop(every time.Duration) {
	defer r.loopWG.Done()
	t := time.NewTimer(every)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			for _, rs := range r.sets {
				rs.reconnect(r.ctx)
			}
			t.Reset(every)
		}
	}
}

// run executes one batch against the set, trying each replica at most
// once: healthy replicas first in round-robin order, then — only if no
// healthy replica remains — a last-resort redial of the dead ones. A
// replica that fails mid-batch is marked dead (and closed); the batch
// is retried on the next candidate, which is correct because local
// searches are idempotent reads. Only when every replica has failed
// does the caller get an error Reply, carrying each replica's failure.
//
// In hedge mode the candidate pool shrinks to idle live replicas: no
// redial of dead endpoints, and ErrNoIdleSibling the moment the pool is
// empty — a hedge races the primary submit, so spending seconds dialing
// would defeat its purpose.
//
// Replies from a set of several replicas own their memory: a replica's
// decode buffers are valid only until its next submit, and with hedging
// two submits to one partition are in flight at once, so the successful
// reply's Boundary lists are copied out of the replica's arena before
// the replica is released for reuse. That keeps every Reply valid until
// the coordinator finishes the whole round, however the round's submits
// interleave. A sole replica is never hedged, so its replies need no
// copy.
func (rs *replicaSet) run(ctx context.Context, h wire.BatchHeader, tasks []wire.Task, hedge bool) Reply {
	tried := make([]bool, len(rs.dialers))
	inner := make(chan Reply, 1)
	attempts := 0
	for {
		idx, rep := rs.pick(tried)
		if rep == nil && !hedge {
			idx, rep = rs.redialDead(ctx, tried)
		}
		if rep == nil {
			if hedge {
				return Reply{Shard: rs.part, Err: ErrNoIdleSibling}
			}
			return Reply{Shard: rs.part, Err: &ReplicaSetError{Part: rs.part, Replicas: rs.describeFailures()}}
		}
		if attempts > 0 {
			rs.retries.Inc() // this batch is being re-run on a sibling
		}
		attempts++
		tried[idx] = true
		t0 := time.Now()
		rep.Submit(h, tasks, inner)
		reply := <-inner
		rs.lat[idx].ObserveSince(t0)
		if reply.Err == nil {
			reply.Shard = rs.part
			if len(rs.dialers) > 1 {
				reply.Results = copyResults(reply.Results)
			}
			rs.setBusy(idx, false)
			return reply
		}
		rs.setBusy(idx, false)
		rs.markDead(idx, rep, reply.Err)
	}
}

// copyResults rebinds results onto a freshly allocated backing array —
// one arena for all Boundary lists — so the reply no longer aliases
// the replica connection's reusable decode buffers.
func copyResults(results []wire.Result) []wire.Result {
	if len(results) == 0 {
		return results
	}
	total := 0
	for i := range results {
		total += len(results[i].Boundary)
	}
	out := make([]wire.Result, len(results))
	copy(out, results)
	arena := make([]uint32, total)
	for i := range out {
		n := copy(arena, out[i].Boundary)
		out[i].Boundary, arena = arena[:n:n], arena[n:]
	}
	return out
}

// sole returns the set's only replica when a batch can go straight to
// it: the set has exactly one replica, and that replica is live, idle,
// and not broken. A replica that reports itself broken (its failure
// went straight to an earlier caller) is marked dead here, and nil
// sends the batch down run's path, which redials it.
func (rs *replicaSet) sole() Replica {
	if len(rs.dialers) != 1 {
		return nil
	}
	rs.mu.Lock()
	rep := rs.live[0]
	if rep == nil || rs.busy[0] {
		rs.mu.Unlock()
		return nil
	}
	rs.mu.Unlock()
	if b, ok := rep.(interface{ Broken() error }); ok {
		if err := b.Broken(); err != nil {
			rs.markDead(0, rep, err)
			return nil
		}
	}
	return rep
}

// setBusy releases (or re-marks) replica idx; acquisition happens
// inside pick/redialDead under rs.mu.
func (rs *replicaSet) setBusy(idx int, b bool) {
	rs.mu.Lock()
	rs.busy[idx] = b
	rs.mu.Unlock()
}

// summary mirrors run for boundary-summary fetches: same candidate
// order, same mark-dead-and-retry failover, same all-replicas-failed
// error. Bails out early when ctx is done rather than burning the
// remaining candidates on a deadline that already passed.
func (rs *replicaSet) summary(ctx context.Context) (SummaryInfo, error) {
	tried := make([]bool, len(rs.dialers))
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return SummaryInfo{}, fmt.Errorf("shard %d: summary: %w", rs.part, err)
		}
		idx, rep := rs.pick(tried)
		if rep == nil {
			idx, rep = rs.redialDead(ctx, tried)
		}
		if rep == nil {
			return SummaryInfo{}, &ReplicaSetError{Part: rs.part, Replicas: rs.describeFailures()}
		}
		if attempts > 0 {
			rs.retries.Inc()
		}
		attempts++
		tried[idx] = true
		sum, err := rep.Summary(ctx)
		rs.setBusy(idx, false)
		if err == nil {
			return SummaryInfo{Hello: rep.Hello(), Summary: sum}, nil
		}
		rs.markDead(idx, rep, err)
	}
}

// pick returns the next untried idle healthy replica in round-robin
// order, or nil if none remains, marking the returned replica busy.
// Skipping busy replicas is what keeps a hedge and its primary (and the
// primary's own sibling retries) on disjoint replicas: each replica
// serves at most one in-flight batch, so its decode buffers hold one
// reply at a time.
func (rs *replicaSet) pick(tried []bool) (int, Replica) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return -1, nil
	}
	n := len(rs.live)
	for i := 0; i < n; i++ {
		idx := (rs.rr + i) % n
		if !tried[idx] && !rs.busy[idx] && rs.live[idx] != nil {
			rs.rr = idx + 1
			rs.busy[idx] = true
			return idx, rs.live[idx]
		}
	}
	return -1, nil
}

// redialDead is the in-query last resort: with no healthy replica left
// the batch would fail anyway, so attempting a fresh dial of each
// untried dead endpoint is strictly better — it catches a replica that
// came back between reconnect ticks. Dials are serialized with the
// background loop so an endpoint is never dialed twice concurrently.
func (rs *replicaSet) redialDead(ctx context.Context, tried []bool) (int, Replica) {
	rs.dialMu.Lock()
	defer rs.dialMu.Unlock()
	for idx := range rs.dialers {
		if tried[idx] {
			continue
		}
		rs.mu.Lock()
		if rs.closed {
			rs.mu.Unlock()
			return -1, nil
		}
		if rep := rs.live[idx]; rep != nil {
			// Revived by the background loop while we waited for dialMu.
			if rs.busy[idx] {
				rs.mu.Unlock()
				continue // revived and immediately claimed by another batch
			}
			rs.busy[idx] = true
			rs.mu.Unlock()
			return idx, rep
		}
		rs.mu.Unlock()
		if ctx.Err() != nil {
			return -1, nil // transport closed (or deadline hit) mid-redial
		}
		rs.redials.Inc()
		rep, err := rs.dialers[idx](ctx)
		if err != nil {
			rs.mu.Lock()
			rs.lastErr[idx] = err
			rs.mu.Unlock()
			continue
		}
		installed, closed := rs.install(idx, rep, true)
		if closed {
			return -1, nil // closed while dialing
		}
		if !installed {
			continue // pinned-identity mismatch; recorded, try the next
		}
		return idx, rep
	}
	return -1, nil
}

// reconnect redials every currently-dead endpoint once.
func (rs *replicaSet) reconnect(ctx context.Context) {
	rs.dialMu.Lock()
	defer rs.dialMu.Unlock()
	for idx := range rs.dialers {
		rs.mu.Lock()
		dead := rs.live[idx] == nil && !rs.closed
		rs.mu.Unlock()
		if !dead || ctx.Err() != nil {
			continue
		}
		rs.redials.Inc()
		rep, err := rs.dialers[idx](ctx)
		if err != nil {
			rs.mu.Lock()
			rs.lastErr[idx] = err
			rs.mu.Unlock()
			continue
		}
		if _, closed := rs.install(idx, rep, false); closed {
			return
		}
	}
}

// install stores a freshly dialed replica after re-verifying it against
// the pinned fleet identity (if any). installed reports whether the
// replica went live; closed reports that the set was closed while the
// dial was in flight (the caller should stop redialing). A verify
// failure records the mismatch as the endpoint's lastErr and closes the
// replica — it stays dead until it comes back serving the right
// deployment. claim marks the installed replica busy for the caller's
// own use (redialDead submits to it immediately; the reconnect loop
// just parks it live for future picks).
func (rs *replicaSet) install(idx int, rep Replica, claim bool) (installed, closed bool) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		rep.Close()
		return false, true
	}
	if err := rs.expect.check(rs.part, rep.Hello()); err != nil {
		rs.lastErr[idx] = err
		rs.mu.Unlock()
		rep.Close()
		return false, false
	}
	rs.live[idx] = rep
	rs.lastErr[idx] = nil
	rs.busy[idx] = claim
	rs.recordEndpointLocked(idx, rep)
	rs.updateLiveLocked()
	rs.mu.Unlock()
	return true, false
}

// recordEndpointLocked caches a freshly dialed replica's endpoint
// identity for Endpoints(). Caller holds rs.mu (or owns the set
// exclusively during construction). Replicas without a network
// endpoint leave the slot as-is.
func (rs *replicaSet) recordEndpointLocked(idx int, rep Replica) {
	if ep, ok := rep.(interface{ Endpoint() (string, wire.Hello) }); ok {
		rs.addrs[idx], rs.hellos[idx] = ep.Endpoint()
	}
}

// updateLiveLocked refreshes the live-replica gauge. Caller holds rs.mu.
func (rs *replicaSet) updateLiveLocked() {
	n := 0
	for _, rep := range rs.live {
		if rep != nil {
			n++
		}
	}
	rs.liveG.Set(int64(n))
}

// markDead records why replica idx failed and closes it, unless a
// reconnect already replaced it with a fresh instance (then the fresh
// one is left alone and only the failed instance is closed).
func (rs *replicaSet) markDead(idx int, failed Replica, err error) {
	rs.mu.Lock()
	if rs.live[idx] == failed {
		rs.live[idx] = nil
		rs.lastErr[idx] = err
		rs.failovers.Inc() // a live replica just transitioned to dead
		rs.updateLiveLocked()
	}
	rs.mu.Unlock()
	failed.Close()
}

func (rs *replicaSet) closeAll() {
	rs.mu.Lock()
	rs.closed = true
	live := make([]Replica, len(rs.live))
	copy(live, rs.live)
	for i := range rs.live {
		rs.live[i] = nil
	}
	rs.updateLiveLocked()
	rs.mu.Unlock()
	for _, rep := range live {
		if rep != nil {
			rep.Close()
		}
	}
}

// describeFailures snapshots the per-replica failure detail.
func (rs *replicaSet) describeFailures() []ReplicaError {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]ReplicaError, len(rs.dialers))
	for i := range rs.dialers {
		out[i] = ReplicaError{Replica: i, Err: rs.lastErr[i]}
		if out[i].Err == nil {
			if rs.closed {
				out[i].Err = ErrClosed
			} else {
				out[i].Err = errors.New("failed during this batch")
			}
		}
	}
	return out
}

// ReplicaError is one replica's failure within a ReplicaSetError.
type ReplicaError struct {
	Replica int
	Err     error
}

// ReplicaSetError reports that every replica of a partition failed for
// one task batch — the only condition under which the replica-aware
// transport surfaces an error to the coordinator.
type ReplicaSetError struct {
	Part     int
	Replicas []ReplicaError
}

// Error lists every replica's failure, in replica order.
func (e *ReplicaSetError) Error() string {
	s := fmt.Sprintf("all %d replica(s) of partition %d failed:", len(e.Replicas), e.Part)
	for _, re := range e.Replicas {
		s += fmt.Sprintf(" [replica %d: %v]", re.Replica, re.Err)
	}
	return s
}
