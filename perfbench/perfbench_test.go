package main

import (
	"bytes"
	"errors"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"melissa/internal/faults"
	"melissa/internal/launcher"
)

// tiny is a workload small enough for a unit test: two groups in flight
// over the in-memory transport.
var tiny = workload{
	name: "tiny", cells: 64, steps: 3, p: 2, groups: 6,
	serverProcs: 2, foldWorkers: 1, simRanks: 1, batchSteps: 1, slots: 2,
}

// tinyTCP is the tiny shape on the quantile-ckpt-tcp path: one group in
// flight (bitwise check), loopback TCP, codec, quantiles and a checkpoint.
var tinyTCP = workload{
	name: "tiny-tcp", cells: 64, steps: 3, p: 2, groups: 6,
	serverProcs: 2, foldWorkers: 1, simRanks: 1, batchSteps: 1, slots: 1,
	tcp: true, codec: true, quantiles: []float64{0.05, 0.5, 0.95},
	minMax: true, higherMoments: true, checkpoint: true,
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b, c := newSolver(64, 3, 7), newSolver(64, 3, 7), newSolver(64, 3, 8)
	for ts := 0; ts < 3; ts++ {
		if !slices.Equal(a.u[ts], b.u[ts]) || !slices.Equal(a.v[ts], b.v[ts]) {
			t.Fatalf("step %d: same seed gave different basis arrays", ts)
		}
		if slices.Equal(a.u[ts], c.u[ts]) {
			t.Fatalf("step %d: different seeds gave the same basis array", ts)
		}
	}
	da, db, dc := newDesign(tiny, 7), newDesign(tiny, 7), newDesign(tiny, 8)
	for g := 0; g < tiny.groups; g++ {
		ra, rb, rc := da.GroupRows(g), db.GroupRows(g), dc.GroupRows(g)
		for m := range ra {
			if !slices.Equal(ra[m], rb[m]) {
				t.Fatalf("group %d member %d: same seed gave different rows", g, m)
			}
			if slices.Equal(ra[m], rc[m]) {
				t.Fatalf("group %d member %d: different seeds gave the same row", g, m)
			}
		}
	}
	var fa, fb []float64
	a.Run(da.GroupRows(0)[0], func(_ int, f []float64) bool { fa = append(fa, f...); return true })
	b.Run(db.GroupRows(0)[0], func(_ int, f []float64) bool { fb = append(fb, f...); return true })
	if len(fa) != 3*64 || !slices.Equal(fa, fb) {
		t.Fatalf("same seed and row gave different fields (%d, %d values)", len(fa), len(fb))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{kind: kindStudy, parent: noParent, start: 0, end: 100},
		// Overlapping children count once; the part past the parent's end
		// is ignored: they cover [10,50) and [90,100).
		{kind: kindSimulation, parent: 0, start: 10, end: 30},
		{kind: kindSimulation, parent: 0, start: 20, end: 50},
		{kind: kindSend, parent: 0, start: 90, end: 120},
		// A grandchild counts against its own parent only.
		{kind: kindEmit, parent: 1, start: 12, end: 18},
	}
	got := selfTimes(spans)
	want := map[spanKind]time.Duration{
		kindStudy:      50,
		kindSimulation: 20 - 6 + 30,
		kindSend:       30,
		kindEmit:       6,
	}
	for k, d := range want {
		if got[k] != d {
			t.Errorf("%s self time = %d, want %d", kindNames[k], got[k], d)
		}
	}
}

func TestSlotGaps(t *testing.T) {
	// Two slots: groups 2 and 3 take the slots freed by the first and second
	// groups to finish.
	starts := []int64{0, 1, 25, 40}
	ends := []int64{20, 30, 50, 60}
	if got := slotGaps(starts, ends, 2); !slices.Equal(got, []int64{5, 10}) {
		t.Fatalf("slotGaps = %v, want [5 10]", got)
	}
}

func runTiny(t *testing.T, w workload, plan *faults.Plan) (*runner, *study) {
	t.Helper()
	r := newRunner(w, 3, t.TempDir())
	r.plan = plan
	st, err := r.run(newSpanBuf(4096))
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

func TestStudyPassesCheck(t *testing.T) {
	for _, w := range []workload{tiny, tinyTCP} {
		_, st := runTiny(t, w, nil)
		if st.checkErr != nil || st.groupsFailed != 0 {
			t.Errorf("%s: check %v, %d groups failed", w.name, st.checkErr, st.groupsFailed)
		}
		if w.checkpoint && st.ckpt.Writes != w.serverProcs {
			t.Errorf("%s: %d checkpoint writes, want %d", w.name, st.ckpt.Writes, w.serverProcs)
		}
		if f, _, _ := st.net.dataTotals(); f == 0 {
			t.Errorf("%s: the traced network saw no data frames", w.name)
		}
	}
}

func TestCheckRejectsPerturbedResult(t *testing.T) {
	for _, w := range []workload{tiny, tinyTCP} {
		r := newRunner(w, 3, t.TempDir())
		good := &studyFields{first: r.ref.first, total: r.ref.total, mean: r.ref.mean, variance: r.ref.variance}
		if len(w.quantiles) > 0 {
			good.quant = exactQuantiles(w, r.ref)
		}
		// The reference covers every cell of the tiny shape, so its fields
		// stand in for a study result.
		if err := r.ref.compare(w, good); err != nil {
			t.Fatalf("%s: unperturbed result rejected: %v", w.name, err)
		}
		for _, perturb := range []func(f *studyFields){
			func(f *studyFields) { f.first[1][5] += 1e-6 },
			func(f *studyFields) { f.variance[2][63] *= 1 + 1e-6 },
			func(f *studyFields) { f.mean[0][0] = math.NaN() },
		} {
			bad := cloneFields(good)
			perturb(bad)
			if err := r.ref.compare(w, bad); err == nil {
				t.Errorf("%s: perturbed result accepted", w.name)
			}
		}
		if len(w.quantiles) > 0 {
			bad := cloneFields(good)
			bad.quant[1][r.ref.qcells[3]] = 1e9
			if err := r.ref.compare(w, bad); err == nil {
				t.Errorf("%s: out-of-bound quantile accepted", w.name)
			}
		}
	}
}

// exactQuantiles answers every probe exactly from the reference samples.
func exactQuantiles(w workload, ref *reference) [][]float64 {
	var out [][]float64
	for ts := 0; ts < w.steps; ts++ {
		for _, q := range w.quantiles {
			f := make([]float64, w.cells)
			for i, c := range ref.qcells {
				smp := ref.samples[ts][i]
				f[c] = smp[max(int(math.Ceil(q*float64(len(smp))))-1, 0)]
			}
			out = append(out, f)
		}
	}
	return out
}

func cloneFields(f *studyFields) *studyFields {
	clone := func(in [][]float64) [][]float64 {
		out := make([][]float64, len(in))
		for i := range in {
			out[i] = slices.Clone(in[i])
		}
		return out
	}
	return &studyFields{first: clone(f.first), total: clone(f.total), mean: clone(f.mean), variance: clone(f.variance), quant: clone(f.quant)}
}

func TestFailureCounterCountsFailedGroups(t *testing.T) {
	plan := faults.NewPlan(faults.GroupFault{Group: 2, Attempt: 0, Kind: faults.Crash, AtStep: 1})
	_, st := runTiny(t, tiny, plan)
	if st.stats.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.stats.Restarts)
	}
	if st.checkErr != nil {
		t.Fatalf("a restarted group's replay must not corrupt the statistics: %v", st.checkErr)
	}
	if st.groupsFailed != 1 {
		t.Fatalf("groups failed = %d, want 1", st.groupsFailed)
	}
	for _, c := range []struct {
		stats launcher.Stats
		err   error
		want  int
	}{
		{launcher.Stats{TimeoutKills: 1, Restarts: 1}, nil, 1}, // a killed group, restarted
		{launcher.Stats{ZombieKills: 1, GroupsGivenUp: 1}, nil, 1},
		{launcher.Stats{GroupsResampled: 2}, nil, 2},
		{launcher.Stats{Restarts: 9}, nil, tiny.groups},
		{launcher.Stats{}, errors.New("perturbed"), tiny.groups},
		{launcher.Stats{}, nil, 0},
	} {
		if got := failedGroups(c.stats, tiny.groups, c.err); got != c.want {
			t.Errorf("failedGroups(%+v, %v) = %d, want %d", c.stats, c.err, got, c.want)
		}
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	stacks := []profStack{
		{count: 3, funcs: []string{"math.Sqrt", "melissa/internal/sobol.FirstOrderCI", "melissa/internal/core.(*Accumulator).MaxCIWidth"}},
		{count: 2, funcs: []string{"runtime.memmove", "melissa/internal/core.(*Accumulator).UpdateGroup", "melissa/internal/server.(*Proc).fold"}},
		{count: 1, funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{count: 1, funcs: []string{"main.(*solver).field", "main.(*solver).Run", "main.(*simProbe).Run"}},
		{count: 1, funcs: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
		{count: 1, funcs: []string{"melissa/internal/obs/log.(*Logger).Event"}},
		{count: 1, funcs: []string{"indexbytebody"}},
	}
	got := cpuShares(stacks)
	want := map[string]float64{"sobol": 0.3, "core": 0.2, "runtime_gc": 0.1, "sim": 0.1, "runtime_sched": 0.1, "obs": 0.1, "other": 0.1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}

	// A real profile round-trips through the decoder.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	s := newSolver(1<<14, 4, 1)
	dst := make([]float64, 1<<14)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		s.field(0, 1.5, dst)
	}
	pprof.StopCPUProfile()
	parsed, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	found := false
	for _, st := range parsed {
		n += st.count
		for _, fn := range st.funcs {
			found = found || fn == "melissa/perfbench.(*solver).field"
		}
	}
	if n == 0 || !found {
		t.Fatalf("decoded %d samples over %d stacks; solver frame found: %v", n, len(parsed), found)
	}
}
