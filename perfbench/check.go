package main

import (
	"fmt"
	"math"
	"sort"

	"melissa/internal/core"
	"melissa/internal/launcher"
	"melissa/internal/quantiles"
	"melissa/internal/sampling"
	"melissa/internal/server"
)

// maxCheckedCells bounds the cells the reference covers. The statistics are
// computed cell by cell, so a reference accumulator over a subset of cells
// holds exactly the values the full one would; larger studies are checked
// on an evenly strided sample.
const maxCheckedCells = 4096

// quantileCells is how many cells per timestep the quantile rank check
// samples.
const quantileCells = 64

// relTol is the tolerance on the statistics when more than one group is in
// flight: the server may fold two groups of one timestep in either order,
// which changes the last bits of the running moments.
const relTol = 1e-9

// reference holds the statistics a single-threaded core.Accumulator
// computes from the same fields, folded in group order.
type reference struct {
	cells          []int
	first, total   [][]float64 // [t*p+k][len(cells)]
	mean, variance [][]float64 // [t][len(cells)]
	// samples[t][c] is the sorted pooled A/B sample of quantile-check cell
	// qcells[c] at timestep t.
	qcells  []int
	samples [][][]float64
	// bitwise is set when the fold order is fixed (one group in flight), so
	// the study must match the reference exactly.
	bitwise bool
}

func checkedCells(cells, limit int) []int {
	stride := (cells + limit - 1) / limit
	var out []int
	for i := 0; i < cells; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != cells-1 {
		out = append(out, cells-1)
	}
	return out
}

func buildReference(w workload, d *sampling.Design, s *solver) *reference {
	ref := &reference{cells: checkedCells(w.cells, maxCheckedCells), bitwise: w.slots == 1}
	nc := len(ref.cells)
	acc := core.NewAccumulator(nc, w.steps, w.p, core.Options{MinMax: w.minMax, HigherMoments: w.higherMoments})
	full := make([]float64, w.cells)
	ys := make([][]float64, w.p+2)
	for i := range ys {
		ys[i] = make([]float64, nc)
	}
	if len(w.quantiles) > 0 {
		ref.qcells = checkedCells(w.cells, quantileCells)
		ref.samples = make([][][]float64, w.steps)
		for t := range ref.samples {
			ref.samples[t] = make([][]float64, len(ref.qcells))
		}
	}
	for g := 0; g < w.groups; g++ {
		rows := d.GroupRows(g)
		for t := 0; t < w.steps; t++ {
			for m, row := range rows {
				s.field(t, response(row), full)
				for i, c := range ref.cells {
					ys[m][i] = full[c]
				}
				if m < 2 && ref.samples != nil {
					for i, c := range ref.qcells {
						ref.samples[t][i] = append(ref.samples[t][i], full[c])
					}
				}
			}
			acc.UpdateGroup(t, ys[0], ys[1], ys[2:])
		}
	}
	for t := 0; t < w.steps; t++ {
		for k := 0; k < w.p; k++ {
			ref.first = append(ref.first, acc.FirstField(t, k, nil))
			ref.total = append(ref.total, acc.TotalField(t, k, nil))
		}
		ref.mean = append(ref.mean, acc.MeanField(t, nil))
		ref.variance = append(ref.variance, acc.VarianceField(t, nil))
		if ref.samples != nil {
			for _, smp := range ref.samples[t] {
				sort.Float64s(smp)
			}
		}
	}
	return ref
}

// checkStudy verifies the outputs of one finished study: every group
// finished, every timestep folded every group, the payload pool is
// balanced, the statistics match the reference and the quantiles are
// within the sketch's rank bound. Groups that finished only after a
// restart are counted by failedGroups, not here.
func checkStudy(w workload, ref *reference, res *server.Result, s launcher.Stats, f *studyFields, ck server.CheckpointStats) error {
	if s.GroupsFinished != w.groups {
		return fmt.Errorf("%d of %d groups finished", s.GroupsFinished, w.groups)
	}
	for t := 0; t < w.steps; t++ {
		if n := res.GroupsFolded(t); n != int64(w.groups) {
			return fmt.Errorf("timestep %d folded %d of %d groups", t, n, w.groups)
		}
	}
	if refs := res.PayloadPool().RefsActive(); refs != 0 {
		return fmt.Errorf("payload pool unbalanced: %d references still active", refs)
	}
	if w.checkpoint && ck.Writes != w.serverProcs {
		return fmt.Errorf("%d checkpoint writes, want one per server process (%d)", ck.Writes, w.serverProcs)
	}
	return ref.compare(w, f)
}

// compare checks the study's fields against the reference on its cells.
func (ref *reference) compare(w workload, f *studyFields) error {
	type named struct {
		name      string
		got, want [][]float64
	}
	for _, set := range []named{
		{"first-order", f.first, ref.first},
		{"total-order", f.total, ref.total},
		{"mean", f.mean, ref.mean},
		{"variance", f.variance, ref.variance},
	} {
		if len(set.got) != len(set.want) {
			return fmt.Errorf("%s: %d fields, want %d", set.name, len(set.got), len(set.want))
		}
		for j, want := range set.want {
			if err := ref.compareField(set.got[j], want); err != nil {
				return fmt.Errorf("%s field %d: %w", set.name, j, err)
			}
		}
	}
	return ref.checkQuantiles(w, f)
}

func (ref *reference) compareField(got, want []float64) error {
	var scale float64
	for _, v := range want {
		scale = max(scale, math.Abs(v))
	}
	for i, c := range ref.cells {
		g, r := got[c], want[i]
		if ref.bitwise {
			if math.Float64bits(g) != math.Float64bits(r) {
				return fmt.Errorf("cell %d: %v, reference %v (bitwise)", c, g, r)
			}
			continue
		}
		if math.IsNaN(g) || math.Abs(g-r) > relTol*(math.Abs(r)+scale) {
			return fmt.Errorf("cell %d: %v, reference %v", c, g, r)
		}
	}
	return nil
}

// checkQuantiles checks every probe on the sampled cells: the estimate's
// rank among the exact pooled samples must lie within ±⌈εn⌉ of ⌈qn⌉.
func (ref *reference) checkQuantiles(w workload, f *studyFields) error {
	if len(w.quantiles) == 0 {
		return nil
	}
	if len(f.quant) != w.steps*len(w.quantiles) {
		return fmt.Errorf("quantiles: %d fields, want %d", len(f.quant), w.steps*len(w.quantiles))
	}
	eps := w.quantileEps
	if eps <= 0 {
		eps = quantiles.DefaultEpsilon
	}
	for t := 0; t < w.steps; t++ {
		for j, q := range w.quantiles {
			field := f.quant[t*len(w.quantiles)+j]
			for i, c := range ref.qcells {
				if err := rankWithin(ref.samples[t][i], q, eps, field[c]); err != nil {
					return fmt.Errorf("quantile %g, timestep %d, cell %d: %w", q, t, c, err)
				}
			}
		}
	}
	return nil
}

// rankWithin checks that est has a rank among the sorted samples within
// ±⌈eps·n⌉ of ⌈q·n⌉.
func rankWithin(sorted []float64, q, eps, est float64) error {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, est) + 1                        // rank of the first sample equal to est
	hi := sort.Search(n, func(i int) bool { return sorted[i] > est }) // rank of the last one
	target := int(math.Ceil(q * float64(n)))
	tol := int(math.Ceil(eps * float64(n)))
	if hi < lo || lo > target+tol || hi < target-tol {
		return fmt.Errorf("estimate %v has rank [%d,%d], want %d±%d of %d", est, lo, hi, target, tol, n)
	}
	return nil
}
