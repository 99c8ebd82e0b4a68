package shard

import (
	"context"
	"errors"

	"dsr/internal/wire"
)

// SummaryInfo pairs one partition's boundary summary with the hello
// identity of the endpoint that served it, so a graph-free coordinator
// can cross-check the fleet's vertex counts, graph fingerprints, and
// partitioning digests against each other while stitching. In-process
// replicas present a zero Hello (no handshake identity), which every
// consumer treats as opting out of the check.
type SummaryInfo struct {
	Hello   wire.Hello
	Summary wire.Summary
}

// EndpointInfo describes one endpoint a transport talks to: which
// partition and replica slot it serves, its dialed address, the metrics
// (ops-endpoint) address it announced in its hello — empty when the
// server runs without -metrics-addr — and whether it is currently live.
// Replicated.Endpoints returns one entry per (partition, replica); the
// fleet aggregator uses it to find every shard registry worth scraping.
type EndpointInfo struct {
	Partition   int
	Replica     int
	Addr        string
	MetricsAddr string
	Live        bool
}

// Reply delivers one shard's results for a submitted batch. On a
// transport failure Err is set and Results is nil. Batch echoes the
// submitted header's batch ID (0 when the serving endpoint predates
// batch IDs), and when the header requested tracing, Timing carries the
// server's self-measured breakdown with HasTiming set — in-process
// transports synthesize it (search time only), TCP servers measure all
// four phases.
type Reply struct {
	Shard     int
	Results   []wire.Result
	Err       error
	Batch     uint64
	HasTiming bool
	Timing    wire.ServerTiming
}

// Transport carries task batches from a coordinator to shards. Submit
// is asynchronous: exactly one Reply per call is delivered on replyc,
// with Results in task order. The Results (and their Boundary slices)
// alias transport-owned buffers and are valid only until the next
// Submit to the same shard — the coordinator must fully consume a
// round's replies before starting the next round, which the DSR engine
// guarantees by serializing rounds under its query lock.
//
// Close shuts the transport down deterministically: when it returns, no
// transport-owned goroutine is still running.
//
// Replicated is the one production implementation, in process (NewLocal)
// and over TCP (Dial, DialReplicated); the interface stays minimal so
// test harnesses and benchmarks can wrap it.
type Transport interface {
	// Submit ships the batch to shard p under the given batch header.
	// tasks must be non-empty and remain untouched until the Reply
	// arrives.
	Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply)
	// Summary fetches shard p's boundary summary plus the identity of
	// the endpoint serving it. The returned slices follow the same arena
	// contract as Results: they alias transport-owned buffers valid
	// until the next Summary or Submit to the same shard, so the
	// coordinator copies what it keeps. ctx bounds the fetch.
	Summary(ctx context.Context, p int) (SummaryInfo, error)
	// Close releases connections and stops goroutines, waiting for them.
	Close() error
}

// ErrClosed is reported by transports used after Close.
var ErrClosed = errors.New("shard: transport closed")
