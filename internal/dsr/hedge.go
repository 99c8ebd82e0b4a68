package dsr

import (
	"time"

	"dsr/internal/obs"
	"dsr/internal/shard"
)

// HedgeOptions configures hedged shard requests: when a round's fan-in
// has waited longer than a high quantile of the partition's usual
// primary latency, the coordinator re-sends the round's task batch to
// an idle sibling replica and takes whichever reply lands first.
// Hedging is sound because local searches are idempotent reads over an
// immutable subgraph — a duplicate answer is identical and is dropped.
// It requires a partition with two or more replicas; without one the
// option is ignored with a warning.
type HedgeOptions struct {
	// Enabled turns hedging on.
	Enabled bool
	// Percentile of the per-partition primary RPC latency to use as the
	// hedge deadline, in (0,1). 0 means 0.99: only the slowest 1% of
	// rounds pay the duplicate work.
	Percentile float64
	// Min clamps the deadline from below, so a very fast fleet doesn't
	// hedge on scheduling jitter. 0 means 1ms.
	Min time.Duration
	// Max clamps the deadline from above and is also the deadline used
	// until enough samples accumulate to estimate the percentile. 0
	// means 100ms.
	Max time.Duration
}

// hedgeDefaults fills zero fields and sanity-clamps the rest.
func (o HedgeOptions) withDefaults() HedgeOptions {
	if o.Percentile <= 0 || o.Percentile >= 1 {
		o.Percentile = 0.99
	}
	if o.Min <= 0 {
		o.Min = time.Millisecond
	}
	if o.Max <= 0 {
		o.Max = 100 * time.Millisecond
	}
	if o.Max < o.Min {
		o.Max = o.Min
	}
	return o
}

// hedgeMinSamples is how many primary latency samples every partition
// must have before the percentile estimate is trusted; until then the
// deadline is Max, so a cold coordinator hedges late rather than
// stampeding siblings off a meaningless estimate.
const hedgeMinSamples = 16

// hedgeState is the engine's hedging machinery: the replicated
// transport plus a private per-partition histogram of primary RPC
// latencies feeding the deadline estimate. The histograms are engine-
// owned (not registry instruments) so hedging works identically with
// metrics disabled.
type hedgeState struct {
	tr  *shard.Replicated
	opt HedgeOptions
	lat []*obs.Histogram
}

func newHedgeState(tr *shard.Replicated, k int, o HedgeOptions) *hedgeState {
	h := &hedgeState{tr: tr, opt: o.withDefaults(), lat: make([]*obs.Histogram, k)}
	for p := range h.lat {
		h.lat[p] = &obs.Histogram{}
	}
	return h
}

// observe feeds one primary (non-hedged) round-trip sample for
// partition p into the deadline estimator.
func (h *hedgeState) observe(p int, d time.Duration) {
	h.lat[p].Observe(int64(d))
}

// delay returns the hedge deadline for the next round: the slowest
// partition's Percentile-quantile primary latency, clamped to
// [Min, Max]. The slowest partition governs because the fan-in waits
// for all partitions — hedging a fast partition at its own p99 while a
// structurally slower one is still in budget would duplicate work that
// isn't late.
func (h *hedgeState) delay() time.Duration {
	var worst uint64
	for _, hist := range h.lat {
		if hist.Count() < hedgeMinSamples {
			return h.opt.Max
		}
		if q := hist.Quantile(h.opt.Percentile); q > worst {
			worst = q
		}
	}
	return min(max(time.Duration(worst), h.opt.Min), h.opt.Max)
}
