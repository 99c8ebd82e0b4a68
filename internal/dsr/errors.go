package dsr

import (
	"fmt"
	"strings"
)

// MismatchError reports two shards of one fleet that disagree about the
// deployment they serve — different vertex counts, graph fingerprints,
// or partitioning digests. Connect refuses such a fleet outright: the
// coordinator holds no graph of its own to arbitrate with, and a
// placement disagreement would mean silently wrong answers, not errors.
type MismatchError struct {
	Field        string // "vertex count", "graph fingerprint", "partitioning digest"
	PartA, PartB int    // the two disagreeing partitions
	A, B         uint64 // their reported values
}

// Error names both partitions, the field they disagree on, and each
// side's value.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("dsr: fleet mismatch: shard %d reports %s %#x, shard %d reports %#x",
		e.PartA, e.Field, e.A, e.PartB, e.B)
}

// PartitionError is one partition that answered nothing for a batch
// round: every replica of the partition failed (Err carries the
// per-replica detail, see shard.ReplicaSetError), or its sole replica
// failed with the batch in flight (Err is that replica's failure).
type PartitionError struct {
	Partition int
	Err       error
}

// Error prefixes the partition's failure with its index.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("partition %d: %v", e.Partition, e.Err)
}

// Unwrap returns the partition's failure, so errors.Is and errors.As
// see through to transport errors such as shard.ErrClosed.
func (e *PartitionError) Unwrap() error { return e.Err }

// BatchError reports partial failure of a QueryBatchErr round: one or
// more partitions were unavailable, exactly one entry per dead
// partition. Answers for queries with Failed[i] == false are still
// valid — either the query never consulted a dead partition, or it was
// proven reachable from the partitions that did answer (a local hit or
// boundary path is evidence of a path; missing data can only hide
// paths, never invent them). Failed[i] == true means the query's
// `false` cannot be trusted and the query should be retried.
type BatchError struct {
	Partitions []PartitionError // one per dead partition, ascending
	Failed     []bool           // per batch query: answer unusable
}

// Error summarizes the round: how many queries failed, and every
// unavailable partition with its failure.
func (e *BatchError) Error() string {
	nf := 0
	for _, f := range e.Failed {
		if f {
			nf++
		}
	}
	parts := make([]string, len(e.Partitions))
	for i := range e.Partitions {
		parts[i] = e.Partitions[i].Error()
	}
	return fmt.Sprintf("dsr: %d of %d queries failed, %d partition(s) unavailable: %s",
		nf, len(e.Failed), len(e.Partitions), strings.Join(parts, "; "))
}
