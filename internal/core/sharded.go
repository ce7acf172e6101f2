package core

import (
	"fmt"

	"melissa/internal/enc"
)

// ShardedAccumulator is an Accumulator split into contiguous cell-range
// shards so that independent cell sub-ranges can be folded concurrently by
// a worker pool: worker i owns shard i and is the only goroutine allowed to
// call UpdateGroupShard(i, ...). Because every (group, timestep) update
// covers all shards and each worker applies updates in the order they were
// enqueued, the per-cell operation sequence is identical to the
// single-threaded Accumulator — sharded results are bitwise equal to dense
// results for the same update stream.
//
// Read methods (FirstField, MaxCIWidth, Encode, ...) present the dense
// single-partition view and must only be called while no worker is folding
// (the server quiesces its pipeline first).
type ShardedAccumulator struct {
	cells     int
	timesteps int
	p         int
	opts      Options

	bounds []int // len(shards)+1 cell offsets; shard i owns [bounds[i], bounds[i+1])
	shards []*Accumulator

	// ycScratch[i] is worker i's reusable header block for the p sub-sliced
	// C fields, so a steady-state fold allocates nothing. Only the owning
	// worker touches ycScratch[i].
	ycScratch [][][]float64
}

// shardBounds evenly splits `cells` cells into `n` contiguous ranges (the
// same block rule as mesh.BlockPartition, kept local to avoid a dependency).
func shardBounds(cells, n int) []int {
	bounds := make([]int, n+1)
	base, rem := cells/n, cells%n
	for i := 0; i < n; i++ {
		bounds[i+1] = bounds[i] + base
		if i < rem {
			bounds[i+1]++
		}
	}
	return bounds
}

func clampShards(cells, shards int) int {
	if shards < 1 {
		shards = 1
	}
	if cells > 0 && shards > cells {
		shards = cells
	}
	return shards
}

// NewSharded returns an empty sharded accumulator over `cells` cells,
// `timesteps` steps and p parameters, split into (at most) `shards`
// contiguous cell ranges. Shards is clamped to [1, cells].
func NewSharded(cells, timesteps, p int, opts Options, shards int) *ShardedAccumulator {
	shards = clampShards(cells, shards)
	s := &ShardedAccumulator{
		cells:     cells,
		timesteps: timesteps,
		p:         p,
		opts:      opts,
		bounds:    shardBounds(cells, shards),
		shards:    make([]*Accumulator, shards),
		ycScratch: make([][][]float64, shards),
	}
	for i := range s.shards {
		s.shards[i] = NewAccumulator(s.bounds[i+1]-s.bounds[i], timesteps, p, opts)
		s.ycScratch[i] = make([][]float64, p)
	}
	return s
}

// SplitAccumulator re-shards a dense accumulator (e.g. one decoded from a
// checkpoint) into `shards` cell ranges, copying the state.
func SplitAccumulator(a *Accumulator, shards int) *ShardedAccumulator {
	shards = clampShards(a.cells, shards)
	s := &ShardedAccumulator{
		cells:     a.cells,
		timesteps: a.timesteps,
		p:         a.p,
		opts:      a.opts,
		bounds:    shardBounds(a.cells, shards),
		shards:    make([]*Accumulator, shards),
		ycScratch: make([][][]float64, shards),
	}
	for i := range s.shards {
		s.shards[i] = a.extractRange(s.bounds[i], s.bounds[i+1])
		s.ycScratch[i] = make([][]float64, a.p)
	}
	return s
}

// Shard returns a copy of the i-th of n contiguous cell sub-ranges of a as
// an independent accumulator.
func (a *Accumulator) Shard(i, n int) *Accumulator {
	n = clampShards(a.cells, n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("core: shard %d out of range [0,%d)", i, n))
	}
	bounds := shardBounds(a.cells, n)
	return a.extractRange(bounds[i], bounds[i+1])
}

// extractRange copies cells [lo, hi) of a into a fresh accumulator. A cell
// range of the interleaved layout is one contiguous block per timestep —
// tracker slots ride inside the records — so everything but the quantile
// sketches moves with a single copy per step.
func (a *Accumulator) extractRange(lo, hi int) *Accumulator {
	out := NewAccumulator(hi-lo, a.timesteps, a.p, a.opts)
	for t := range a.steps {
		src, dst := &a.steps[t], &out.steps[t]
		dst.n = src.n
		dst.minmaxN = src.minmaxN
		dst.exceedN = src.exceedN
		dst.higherN = src.higherN
		copy(dst.rec, src.rec[lo*a.stride:hi*a.stride])
		if src.quant != nil {
			dst.quant = src.quant.Extract(lo, hi)
		}
	}
	return out
}

// injectRange copies src (an accumulator over hi-lo cells) into cells
// [lo, lo+src.cells) of a, adopting src's per-step counts — the contiguous
// inverse of extractRange.
func (a *Accumulator) injectRange(src *Accumulator, lo int) {
	for t := range a.steps {
		from, to := &src.steps[t], &a.steps[t]
		to.n = from.n
		to.minmaxN = from.minmaxN
		to.exceedN = from.exceedN
		to.higherN = from.higherN
		to.ciDirty = true
		copy(to.rec[lo*a.stride:(lo+src.cells)*a.stride], from.rec)
		if to.quant != nil && from.quant != nil {
			to.quant.Inject(from.quant, lo)
		}
	}
}

// Cells returns the total partition size across shards.
func (s *ShardedAccumulator) Cells() int { return s.cells }

// Timesteps returns the number of output steps tracked.
func (s *ShardedAccumulator) Timesteps() int { return s.timesteps }

// P returns the number of input parameters.
func (s *ShardedAccumulator) P() int { return s.p }

// NumShards returns the number of cell-range shards.
func (s *ShardedAccumulator) NumShards() int { return len(s.shards) }

// ShardRange returns the [lo, hi) cell range owned by shard i.
func (s *ShardedAccumulator) ShardRange(i int) (lo, hi int) {
	return s.bounds[i], s.bounds[i+1]
}

// ShardAccum exposes the i-th shard's accumulator (tests and diagnostics).
func (s *ShardedAccumulator) ShardAccum(i int) *Accumulator { return s.shards[i] }

// N returns the number of groups folded into timestep t.
func (s *ShardedAccumulator) N(t int) int64 { return s.shards[0].N(t) }

// UpdateGroupShard folds shard i's cell range of one group's results at
// step t. yA, yB and yC[k] are full-partition fields (length Cells());
// the shard sub-slices them in place. Concurrency contract: shard i must
// only ever be updated by one goroutine at a time, and all shards must see
// every (group, step) update in the same order for bitwise-deterministic
// results.
func (s *ShardedAccumulator) UpdateGroupShard(i, t int, yA, yB []float64, yC [][]float64) {
	lo, hi := s.bounds[i], s.bounds[i+1]
	yc := s.ycScratch[i]
	for k := range yc {
		yc[k] = yC[k][lo:hi]
	}
	s.shards[i].UpdateGroup(t, yA[lo:hi], yB[lo:hi], yc)
}

// UpdateGroup folds one group's results into every shard sequentially —
// the dense-compatible path used when no worker pool is running.
func (s *ShardedAccumulator) UpdateGroup(t int, yA, yB []float64, yC [][]float64) {
	for i := range s.shards {
		s.UpdateGroupShard(i, t, yA, yB, yC)
	}
}

// shardFor locates the shard owning global cell i.
func (s *ShardedAccumulator) shardFor(i int) (shard, local int) {
	for si := 0; si < len(s.shards); si++ {
		if i < s.bounds[si+1] {
			return si, i - s.bounds[si]
		}
	}
	panic(fmt.Sprintf("core: cell %d out of range [0,%d)", i, s.cells))
}

// FirstAt returns the first-order index S_k(x, t) for global cell i.
func (s *ShardedAccumulator) FirstAt(t, k, i int) float64 {
	si, li := s.shardFor(i)
	return s.shards[si].FirstAt(t, k, li)
}

// TotalAt returns the total index ST_k(x, t) for global cell i.
func (s *ShardedAccumulator) TotalAt(t, k, i int) float64 {
	si, li := s.shardFor(i)
	return s.shards[si].TotalAt(t, k, li)
}

// stitch runs one shard-level field writer per shard into the matching
// sub-range of dst.
func (s *ShardedAccumulator) stitch(dst []float64, get func(sh *Accumulator, sub []float64)) []float64 {
	dst = ensureLen(dst, s.cells)
	for i, sh := range s.shards {
		get(sh, dst[s.bounds[i]:s.bounds[i+1]])
	}
	return dst
}

// FirstField writes the per-cell first-order index field S_k(·, t) into dst.
func (s *ShardedAccumulator) FirstField(t, k int, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.FirstField(t, k, sub) })
}

// TotalField writes the per-cell total-order index field ST_k(·, t) into dst.
func (s *ShardedAccumulator) TotalField(t, k int, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.TotalField(t, k, sub) })
}

// MeanField writes the per-cell mean of the B sample at step t into dst.
func (s *ShardedAccumulator) MeanField(t int, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.MeanField(t, sub) })
}

// VarianceField writes the per-cell unbiased variance of the B sample at
// step t into dst.
func (s *ShardedAccumulator) VarianceField(t int, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.VarianceField(t, sub) })
}

// InteractionField writes 1 − ΣS_k(·, t) into dst.
func (s *ShardedAccumulator) InteractionField(t int, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.InteractionField(t, sub) })
}

// QuantileField writes the per-cell q-quantile estimate at step t into dst
// (zeros when quantile tracking is disabled).
func (s *ShardedAccumulator) QuantileField(t int, q float64, dst []float64) []float64 {
	return s.stitch(dst, func(sh *Accumulator, sub []float64) { sh.QuantileField(t, q, sub) })
}

// QuantileProbes returns the configured quantile probe list (nil when
// quantile tracking is disabled).
func (s *ShardedAccumulator) QuantileProbes() []float64 { return s.opts.Quantiles }

// MaxCIWidth returns the widest confidence interval over all shards — the
// same value as Accumulator.MaxCIWidth on the dense state. Each shard's scan
// is incremental (per-timestep dirty flags and cached widths), so a report
// only pays for the (shard, timestep) ranges that folded new groups since
// the previous call; quiescent shards answer from cache. Like the dense
// scan, this mutates cache state and must not race with shard updates.
func (s *ShardedAccumulator) MaxCIWidth(level float64) float64 {
	var worst float64
	for _, sh := range s.shards {
		if w := sh.MaxCIWidth(level); w > worst {
			worst = w
		}
	}
	return worst
}

// MemoryBytes totals the float64 state across shards (identical to the
// dense accumulator's memory model).
func (s *ShardedAccumulator) MemoryBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// QuantileTupleCount totals the retained quantile-sketch tuples across
// shards (0 when quantiles are disabled) — the sketch-memory telemetry.
func (s *ShardedAccumulator) QuantileTupleCount() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.QuantileTupleCount()
	}
	return total
}

// CompactQuantiles runs the sketch compaction pass on every shard (no-op
// when quantiles are disabled). Like the other read/maintenance methods it
// must only run while no worker is folding.
func (s *ShardedAccumulator) CompactQuantiles() {
	for _, sh := range s.shards {
		sh.CompactQuantiles()
	}
}

// Dense assembles the shards back into one dense Accumulator (a copy; the
// shards remain usable).
func (s *ShardedAccumulator) Dense() *Accumulator {
	out := NewAccumulator(s.cells, s.timesteps, s.p, s.opts)
	for i, sh := range s.shards {
		out.injectRange(sh, s.bounds[i])
	}
	return out
}

// Encode appends the accumulator state to w in the *dense* single-
// accumulator checkpoint format, so checkpoints are interchangeable between
// sharded and unsharded servers (and across FoldWorkers settings).
func (s *ShardedAccumulator) Encode(w *enc.Writer) {
	if len(s.shards) == 1 {
		s.shards[0].Encode(w)
		return
	}
	s.Dense().Encode(w)
}

// DecodeShardedVersion reconstructs a sharded accumulator from a
// dense-format checkpoint stream encoded in the given layout version (see
// DecodeAccumulatorVersion), splitting it into `shards` ranges.
func DecodeShardedVersion(r *enc.Reader, version, shards int) (*ShardedAccumulator, error) {
	dense, err := DecodeAccumulatorVersion(r, version)
	if err != nil {
		return nil, err
	}
	return SplitAccumulator(dense, shards), nil
}
