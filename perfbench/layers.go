package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/codec"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/obs"
)

// The server's stage histograms, read from the process-wide obs registry
// the program already exports on /metrics.
var obsHistograms = []string{
	"melissa_server_route_seconds",
	"melissa_server_shard_decode_seconds",
	"melissa_server_fold_seconds",
	"melissa_server_codec_decompress_seconds",
}

const (
	obsRoute = iota
	obsDecode
	obsFold
	obsCodec
)

// obsDelta holds the sum (seconds) and count of each histogram in
// obsHistograms.
type obsDelta struct {
	sum   [4]float64
	count [4]int64
}

func readObs() obsDelta {
	var b strings.Builder
	var d obsDelta
	if err := obs.Default.WriteMetrics(&b); err != nil {
		return d
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for i, h := range obsHistograms {
			switch name {
			case h + "_sum":
				d.sum[i], _ = strconv.ParseFloat(val, 64)
			case h + "_count":
				d.count[i], _ = strconv.ParseInt(val, 10, 64)
			}
		}
	}
	return d
}

func (d obsDelta) minus(o obsDelta) obsDelta {
	for i := range d.sum {
		d.sum[i] -= o.sum[i]
		d.count[i] -= o.count[i]
	}
	return d
}

// replays are isolated, single-threaded calls into one layer's public
// functions at the workload's shape: the plain baseline each pipeline
// figure can be compared with.
type replays struct {
	updateGroup time.Duration // one Accumulator.UpdateGroup
	ciScan      time.Duration // one full MaxCIWidth(0.95)
	countSweep  time.Duration // one QuantileTupleCount after a fold
	ckptWrite   time.Duration // one checkpoint.Write of the whole state
	compress    time.Duration // one codec compress of one batch frame
	noOutput    time.Duration // one Simulation.Run with a no-op emit
}

const replayReps = 7

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func timeReps(reps int, f func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	return medianDur(ds)
}

func (r *runner) replay() (replays, error) {
	w := r.w
	var out replays
	acc := core.NewAccumulator(w.cells, w.steps, w.p, core.Options{
		MinMax: w.minMax, HigherMoments: w.higherMoments,
		Quantiles: w.quantiles, QuantileEps: w.quantileEps,
	})
	group := func(g int) [][][]float64 { // [t][member][cell]
		rows := r.design.GroupRows(g)
		ys := make([][][]float64, w.steps)
		for t := range ys {
			ys[t] = make([][]float64, len(rows))
			for m, row := range rows {
				ys[t][m] = make([]float64, w.cells)
				r.solver.field(t, response(row), ys[t][m])
			}
		}
		return ys
	}
	// The CI scan needs at least four groups in every timestep.
	for g := 0; g < 4; g++ {
		ys := group(g)
		for t := range ys {
			acc.UpdateGroup(t, ys[t][0], ys[t][1], ys[t][2:])
		}
	}
	ys := group(4 % w.groups)
	out.updateGroup = timeReps(replayReps, func() { acc.UpdateGroup(0, ys[0][0], ys[0][1], ys[0][2:]) })
	// A full scan of a large state takes most of a second; three suffice.
	ci := make([]time.Duration, 3)
	for i := range ci {
		acc.MaxCIWidth(0.9) // a level change marks every timestep for a full rescan
		t0 := time.Now()
		acc.MaxCIWidth(0.95)
		ci[i] = time.Since(t0)
	}
	out.ciScan = medianDur(ci)
	if len(w.quantiles) > 0 {
		sweeps := make([]time.Duration, replayReps)
		for i := range sweeps {
			for t := range ys {
				acc.UpdateGroup(t, ys[t][0], ys[t][1], ys[t][2:])
			}
			t0 := time.Now()
			acc.QuantileTupleCount()
			sweeps[i] = time.Since(t0)
		}
		out.countSweep = medianDur(sweeps)
	}

	path := filepath.Join(r.ckptDir, "replay.ckpt")
	t0 := time.Now()
	err := checkpoint.Write(path, func(e *enc.Writer) { acc.Encode(e) })
	out.ckptWrite = time.Since(t0)
	os.Remove(path)
	if err != nil {
		return out, err
	}

	// One batch frame as a client ships it to one server process:
	// batchSteps × (p+2) fields over the process's cells, delta-XOR'd and
	// entropy-coded.
	cells := w.cells / w.serverProcs
	steps := min(w.batchSteps, w.steps)
	words := make([]uint64, 0, steps*(w.p+2)*cells)
	for t := 0; t < steps; t++ {
		for m := range ys[t] {
			part := make([]uint64, cells)
			codec.Float64sToWords(part, ys[t][m][:cells])
			words = append(words, part...)
		}
	}
	var e codec.Encoder
	dst := make([]byte, 0, codec.MaxCompressedLen(8*len(words)))
	scratch := make([]uint64, len(words))
	out.compress = timeReps(replayReps, func() {
		copy(scratch, words)
		codec.DeltaXOR(scratch, steps, w.p+2, cells)
		dst = e.Compress(dst[:0], scratch)
	})

	rows := r.design.GroupRows(0)
	out.noOutput = timeReps(replayReps, func() {
		for _, row := range rows {
			r.solver.Run(row, func(int, []float64) bool { return true })
		}
	}) / time.Duration(len(rows))
	return out, nil
}
