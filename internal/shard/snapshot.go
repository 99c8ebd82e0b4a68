package shard

import (
	"dsr/internal/snapshot"
	"dsr/internal/wire"
)

// Snapshot captures the shard's complete query state for persistence:
// the subgraph with its condensation and reachability index, plus the
// boundary summary edges, under a header carrying the deployment
// identity (shard count, total vertex count, graph fingerprint,
// partitioning digest — the same fields the hello handshake checks).
// It forces the index and summary to be built first, so a snapshot
// taken right after construction persists the finished state.
func (s *Shard) Snapshot(shardCount, totalVertices int, graphSum, partSum uint64) *snapshot.Snapshot {
	sum := s.Summary()
	return &snapshot.Snapshot{
		Header: snapshot.Header{
			Version:            snapshot.FormatVersion,
			ShardID:            s.id,
			ShardCount:         shardCount,
			TotalVertices:      totalVertices,
			GraphFingerprint:   graphSum,
			PartitioningDigest: partSum,
		},
		Sub:          s.sub,
		SummaryEdges: sum.Edges,
	}
}

// FromSnapshot reconstitutes a Shard from a decoded snapshot without
// re-deriving anything: the condensation and index arrive attached to
// the subgraph, and the boundary summary is preset from the persisted
// edges (its boundary-vertex and cross-edge parts are re-emitted from
// already-loaded state in output-linear time). The result is
// byte-identical on the wire to a freshly built shard.
func FromSnapshot(sn *snapshot.Snapshot) *Shard {
	s := New(sn.ShardID, sn.Sub)
	s.PresetSummary(s.summaryWith(sn.SummaryEdges))
	return s
}

// PresetSummary installs a prebuilt boundary summary, skipping the
// index-driven build Summary would otherwise perform on first call. A
// no-op if the summary was already built or preset.
func (s *Shard) PresetSummary(sum wire.Summary) {
	s.sumOnce.Do(func() { s.sum = sum })
}
