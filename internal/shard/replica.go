package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsr/internal/wire"
)

// Replica is one endpoint serving a single partition's local-search
// task batches. It is the unit the replica-aware transport
// (Replicated) fails over between: every replica of a partition holds
// the same subgraph and index, so any of them can answer any batch for
// that partition. Submit follows the Transport contract, minus the
// partition index (a Replica serves exactly one partition): exactly
// one Reply per call, with Shard set to that partition and Results
// aliasing replica-owned buffers that stay valid until the next Submit
// to the same replica. Close releases the replica's resources; a closed
// replica answers every further Submit with an error Reply.
//
// A replica whose failures can surface outside the transport's view may
// also implement Broken() error, reporting the failure (nil while
// usable): Replicated hands a sole replica's replies straight to the
// caller, so it asks Broken before reusing one, to mark it dead and
// redial instead.
type Replica interface {
	Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply)
	// Summary fetches the replica's boundary summary. Same arena
	// contract as Results: the slices stay valid until the next Submit
	// or Summary on this replica.
	Summary(ctx context.Context) (wire.Summary, error)
	// Hello reports the identity the replica presented at dial time. A
	// zero Hello (NumShards == 0) means the replica has no handshake
	// identity (in-process replicas) and opts out of fleet cross-checks.
	Hello() wire.Hello
	Close() error
}

// ReplicaDialer establishes a live Replica for one endpoint, or
// reports why it cannot (host down, handshake mismatch). The
// replica-aware transport calls it at construction, again from its
// periodic reconnect loop for endpoints marked dead, and as a last
// resort during a query when a partition has no live replica left. ctx
// bounds the dial attempt; redials triggered by Close-cancelled
// transports abort promptly.
type ReplicaDialer func(ctx context.Context) (Replica, error)

// TCPReplicaDialer returns a dialer for a dsr-shard server at addr
// serving partition p of a numShards-wide deployment. Every dial runs
// the full hello handshake — shard identity, deployment shape, graph
// fingerprint, partitioning digest — so a replica that comes back
// wrong (restarted from a different graph or partitioning spec) is
// refused on reconnect exactly like at first contact.
func TCPReplicaDialer(p int, addr string, numShards, wantVertices int, wantGraph, wantPart uint64) ReplicaDialer {
	return tcpReplicaDialer(p, addr, numShards, wantVertices, wantGraph, wantPart, nil)
}

// tcpReplicaDialer is TCPReplicaDialer with a client-side frame-counter
// attachment; DialReplicated uses it so every replica connection — both
// at construction and on every redial — shares the transport's
// net_client_* counters.
func tcpReplicaDialer(p int, addr string, numShards, wantVertices int, wantGraph, wantPart uint64, met *netMetrics) ReplicaDialer {
	return func(ctx context.Context) (Replica, error) {
		return dialShard(ctx, p, addr, numShards, wantVertices, wantGraph, wantPart, met)
	}
}

// localReplica serves one partition's batches on a dedicated in-process
// Shard, from its own serving goroutine — so a round's submits to k
// partitions run their local searches in parallel, and Submit never
// blocks on the search. The fast path stays allocation-free: a Submit
// is one channel send of a request struct, and every buffer involved is
// owned by the Shard and reused. R local replicas of a partition are R
// independent Shard instances over the same subgraph, so failing over
// between them is exercised with real buffer ownership.
type localReplica struct {
	sh   *Shard
	reqs chan localReq
	done chan struct{} // closed when the serving goroutine exits

	mu     sync.Mutex // guards closed and sends on reqs
	closed bool
}

type localReq struct {
	hdr    wire.BatchHeader
	tasks  []wire.Task
	replyc chan<- Reply
}

// NewLocalReplica wraps sh as a Replica and starts its serving
// goroutine (Close stops it). The Replica takes ownership of sh's
// scratch: callers must not Run the shard themselves, and replicas of
// the same partition need distinct Shard instances (they may execute
// concurrently during failover).
func NewLocalReplica(sh *Shard) Replica {
	lr := &localReplica{
		sh:   sh,
		reqs: make(chan localReq, 1),
		done: make(chan struct{}),
	}
	go func() {
		defer close(lr.done)
		for req := range lr.reqs {
			req.replyc <- serveLocal(sh, req.hdr, req.tasks)
		}
	}()
	return lr
}

// serveLocal runs one batch on sh and builds its Reply, synthesizing
// the server-timing breakdown (search time only — there is no decode,
// queue, or encode in process) when the header asks for tracing, so
// in-process replicas feed the engine's net-vs-server split too. The
// timing branch is allocation-free: the Reply is built by value.
func serveLocal(sh *Shard, hdr wire.BatchHeader, tasks []wire.Task) Reply {
	rep := Reply{Shard: sh.ID(), Batch: hdr.Batch}
	if hdr.Trace {
		start := time.Now()
		rep.Results = sh.Run(tasks)
		rep.Timing.Search = uint64(time.Since(start))
		rep.HasTiming = true
		return rep
	}
	rep.Results = sh.Run(tasks)
	return rep
}

// NewLocal returns the in-process transport: a Replicated with one
// local replica per shard (shards[p] serves partition p). Local
// replicas never fail, so it runs no reconnect loop.
func NewLocal(shards []*Shard) (*Replicated, error) {
	groups := make([][]ReplicaDialer, len(shards))
	for p, sh := range shards {
		groups[p] = []ReplicaDialer{func(context.Context) (Replica, error) { return NewLocalReplica(sh), nil }}
	}
	return NewReplicated(context.Background(), groups, ReplicatedOptions{ReconnectEvery: -1})
}

func (lr *localReplica) Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.closed {
		replyc <- Reply{Shard: lr.sh.ID(), Err: ErrClosed}
		return
	}
	// Sending under mu keeps Close from closing reqs mid-send. The send
	// does not wait: the transport has at most one batch outstanding per
	// replica, and reqs has room for one.
	lr.reqs <- localReq{hdr: h, tasks: tasks, replyc: replyc}
}

func (lr *localReplica) Summary(ctx context.Context) (wire.Summary, error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.closed {
		return wire.Summary{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return wire.Summary{}, err
	}
	return lr.sh.Summary(), nil
}

// Hello returns the zero Hello: in-process replicas have no handshake
// identity, which consumers treat as opting out of fleet cross-checks.
func (lr *localReplica) Hello() wire.Hello { return wire.Hello{} }

// Close stops the serving goroutine after it has answered every batch
// already submitted, and waits for it. Safe to call more than once.
func (lr *localReplica) Close() error {
	lr.mu.Lock()
	if !lr.closed {
		lr.closed = true
		close(lr.reqs)
	}
	lr.mu.Unlock()
	<-lr.done
	return nil
}

// ParseGroups expands replica address groups: addrs[p] holds partition
// p's endpoints separated by '|' ("host1:7000|host2:7000"). Whitespace
// around endpoints is trimmed; empty endpoints (or empty groups) are
// rejected so a typo like "a||b" cannot silently shrink a replica set.
func ParseGroups(addrs []string) ([][]string, error) {
	groups := make([][]string, len(addrs))
	for p, spec := range addrs {
		for _, a := range strings.Split(spec, "|") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("shard: partition %d: empty replica address in %q", p, spec)
			}
			groups[p] = append(groups[p], a)
		}
	}
	return groups, nil
}
