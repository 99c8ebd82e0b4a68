// Package core is the public façade over the DSR engine. Two entry
// points cover the two deployments:
//
// Build partitions a graph and answers queries in one process:
//
//	g := ...                                   // *graph.Graph
//	eng, err := core.Build(g, core.Options{K: 4})
//	defer eng.Close()
//	ok := eng.Query([]graph.VertexID{0, 1}, []graph.VertexID{9})
//
// Connect joins a running fleet of dsr-shard servers, graph-free: the
// coordinator needs nothing but the shard addresses. Each shard ships
// its boundary summary at connect time and the coordinator stitches
// them into the global boundary graph — the full graph never exists on
// the coordinator, whose resident state scales with the boundary, not
// the graph:
//
//	eng, err := core.Connect(ctx, core.ClusterSpec{
//	    Groups: []string{"host1:7000", "host2:7000", "host3:7000"},
//	})
//	defer eng.Close()
//	answers, err := eng.QueryBatchErr([]core.Query{{S: s0, T: t0}, {S: s1, T: t1}})
package core

import (
	"context"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/shard"
)

// Query pairs one source set with one target set for QueryBatch.
type Query = dsr.Query

// Options configures Build: partition count, partitioning strategy
// (nil means graph.Hash()), or a precomputed Partitioning.
type Options = dsr.Options

// Runtime holds the knobs Options and ClusterSpec share: metrics
// registry, logger, slow-query threshold, and hedging.
type Runtime = dsr.Runtime

// ClusterSpec describes an existing shard fleet for Connect: one
// address spec per partition ("host:port", or "a:port|b:port" replica
// groups), plus optional pinned expectations (graph fingerprint,
// partitioning digest) and connect-progress logging.
type ClusterSpec = dsr.ClusterSpec

// HedgeOptions configures hedged shard requests for replicated
// deployments: rounds that outlast a high quantile of a partition's
// usual latency are re-sent to an idle sibling replica, first reply
// wins. Sound because local searches are idempotent reads.
type HedgeOptions = dsr.HedgeOptions

// BatchError is QueryBatchErr's partial-failure report: one entry per
// unavailable partition plus a per-query Failed mask; answers for
// queries with Failed[i] == false remain valid.
type BatchError = dsr.BatchError

// PartitionError is one unavailable partition inside a BatchError.
type PartitionError = dsr.PartitionError

// MismatchError reports a fleet whose shards disagree with each other
// about the deployment they serve (vertex count, graph fingerprint, or
// partitioning digest); Connect refuses such a fleet outright.
type MismatchError = dsr.MismatchError

// PartitionHealth is one partition's replica-health snapshot from
// Engine.Health: configured and live replica counts plus cumulative
// retry/failover/redial totals since connect.
type PartitionHealth = shard.PartitionHealth

// EndpointInfo is one shard replica's identity as Engine.Endpoints
// reports it: partition, replica slot, RPC address, the ops address it
// announced at handshake (empty if none), and liveness.
type EndpointInfo = shard.EndpointInfo

// Engine answers set-reachability queries over a partitioned graph.
type Engine struct {
	inner *dsr.Engine
}

// Build partitions g per opts and starts an in-process engine over it:
// one shard per partition, each shipping its boundary summary to the
// coordinator over the same summary path a remote fleet uses.
func Build(g *graph.Graph, opts Options) (*Engine, error) {
	inner, err := dsr.Build(g, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Connect joins the shard fleet described by spec and builds the
// graph-free coordinator over it: identity comes from the handshake,
// boundary structure from the summaries the shards ship, and shards
// that disagree with each other are refused with a *MismatchError.
// With replica groups the coordinator routes rounds to healthy
// replicas, retries mid-query failures on siblings, and redials dead
// replicas; a partition is only unavailable once every replica of it is
// down, and even then QueryBatchErr fails just the queries that needed
// it (see BatchError).
//
// ctx bounds connecting (dials, handshakes, summary fetches) and
// cancels in-flight redials on Close; it does not bound later queries.
func Connect(ctx context.Context, spec ClusterSpec) (*Engine, error) {
	inner, err := dsr.Connect(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Query reports whether any source in S reaches any target in T. It
// panics if the engine has been closed or a shard transport fails.
func (e *Engine) Query(S, T []graph.VertexID) bool { return e.inner.Query(S, T) }

// QueryBatch answers a batch of queries in one shard round-trip each
// way, amortizing transport overhead; answers are positional. It panics
// on closed engines and transport failures.
func (e *Engine) QueryBatch(queries []Query) []bool { return e.inner.QueryBatch(queries) }

// QueryBatchErr is QueryBatch with transport failures returned as an
// error — the form to use against remote shards. When the error is a
// *BatchError (one or more partitions unavailable), the answers are
// still valid for every query the error's Failed mask doesn't flag.
func (e *Engine) QueryBatchErr(queries []Query) ([]bool, error) {
	return e.inner.QueryBatchErr(queries)
}

// NumPartitions returns the partition count.
func (e *Engine) NumPartitions() int { return e.inner.NumPartitions() }

// NumBoundary returns the size of the compressed boundary graph.
func (e *Engine) NumBoundary() int { return e.inner.NumBoundary() }

// ResidentBytes reports the coordinator's per-graph resident footprint
// — the stitched boundary graph. It scales with the boundary, never
// with partition interiors.
func (e *Engine) ResidentBytes() int { return e.inner.ResidentBytes() }

// Endpoints lists the shard replicas behind the engine — RPC address,
// announced ops address, liveness — for fleet-wide metrics scraping.
// Nil for in-process engines, whose shards have no addresses.
func (e *Engine) Endpoints() []EndpointInfo { return e.inner.Endpoints() }

// Health reports per-partition replica health for replicated
// deployments (live counts, retries, failovers, redials since connect);
// nil for in-process and single-replica engines.
func (e *Engine) Health() []PartitionHealth { return e.inner.Health() }

// Close shuts the engine down deterministically: in-process shard
// goroutines have exited and remote connections are closed when it
// returns.
func (e *Engine) Close() { e.inner.Close() }
