package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/faults"
	"melissa/internal/launcher"
	"melissa/internal/sampling"
	"melissa/internal/scheduler"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// memberID locates one simulation of the design: its group and its
// position in the group (0 = A, 1 = B, 2+k = C^k).
type memberID struct{ group, member int }

func rowKey(row []float64) string {
	b := make([]byte, 0, 8*len(row))
	for _, v := range row {
		u := math.Float64bits(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// rowIndex maps every design row back to its group, so the harness knows
// which group a Simulation.Run call belongs to without any program hook.
func rowIndex(d *sampling.Design) map[string]memberID {
	idx := make(map[string]memberID, d.N()*d.GroupSize())
	for g := 0; g < d.N(); g++ {
		for m, row := range d.GroupRows(g) {
			idx[rowKey(row)] = memberID{g, m}
		}
	}
	return idx
}

// simProbe wraps the workload's solver for one study. It stamps the first
// Run call (the end of set-up), sums Run wall time, and tracks each group's
// first start and last return. When a span buffer is attached it also
// records simulation and emit spans.
type simProbe struct {
	inner  client.Simulation
	rows   map[string]memberID
	epoch  time.Time
	buf    *spanBuf // nil in untraced studies
	root   int32
	first  atomic.Int64 // ns since epoch of the first Run call; 0 = none yet
	last   atomic.Int64 // ns since epoch of the latest Run return
	runs   atomic.Int64
	runNs  atomic.Int64
	emitNs atomic.Int64
	// groupStart/groupEnd hold each group's first member start and last
	// member return (ns since epoch).
	groupStart, groupEnd []atomic.Int64
}

func (p *simProbe) now() int64 { return int64(time.Since(p.epoch)) }

// Run implements client.Simulation.
func (p *simProbe) Run(row []float64, emit func(step int, field []float64) bool) {
	start := p.now()
	p.first.CompareAndSwap(0, start)
	id, ok := p.rows[rowKey(row)]
	if !ok {
		id = memberID{group: noTrace}
	} else {
		casMin(&p.groupStart[id.group], start)
	}
	inner := emit
	sim := int32(-1)
	if p.buf != nil {
		sim = p.buf.open(kindSimulation, p.root, id.group, noTrace, start)
		inner = func(step int, field []float64) bool {
			t0 := p.now()
			ok := emit(step, field)
			t1 := p.now()
			p.emitNs.Add(t1 - t0)
			p.buf.add(kindEmit, sim, id.group, step, t0, t1)
			return ok
		}
	}
	p.inner.Run(row, inner)
	end := p.now()
	if p.buf != nil {
		p.buf.close(sim, end)
	}
	p.runs.Add(1)
	p.runNs.Add(end - start)
	casMax(&p.last, end)
	if ok {
		casMax(&p.groupEnd[id.group], end)
	}
}

func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur != 0 && cur <= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// slotGaps returns, for every group that had to wait for a cluster slot,
// the time from the slot being freed (the return of the last member of the
// group that held it) to the group's first member starting. With s slots,
// the k-th group to start took the slot of the (k−s)-th group to finish.
func slotGaps(starts, ends []int64, slots int) []int64 {
	s := append([]int64(nil), starts...)
	e := append([]int64(nil), ends...)
	slices.Sort(s)
	slices.Sort(e)
	var gaps []int64
	for k := slots; k < len(s); k++ {
		gaps = append(gaps, s[k]-e[k-slots])
	}
	return gaps
}

// studyFields is everything the harness reads back from a study.
type studyFields struct {
	first, total   [][]float64 // [t*p+k]
	mean, variance [][]float64 // [t]
	quant          [][]float64 // [t*len(probes)+j]
}

func collectFields(res *server.Result, w workload) *studyFields {
	f := &studyFields{}
	for t := 0; t < w.steps; t++ {
		for k := 0; k < w.p; k++ {
			f.first = append(f.first, res.FirstField(t, k))
			f.total = append(f.total, res.TotalField(t, k))
		}
		f.mean = append(f.mean, res.MeanField(t))
		f.variance = append(f.variance, res.VarianceField(t))
		for _, q := range w.quantiles {
			f.quant = append(f.quant, res.QuantileField(t, q))
		}
	}
	return f
}

// study is one measured study and the figures the harness read from the
// outside of the program.
type study struct {
	wall, setup  time.Duration
	simMean      time.Duration
	cpu          time.Duration
	allocBytes   uint64
	peakRSS      int64
	wireBytes    int64
	rawBytes     int64
	gcCycles     uint32
	gcPause      time.Duration
	assemble     time.Duration
	tail         time.Duration
	groupsFailed int
	stats        launcher.Stats
	stateBytes   int64
	tuples       int64
	ckpt         server.CheckpointStats
	obs          obsDelta
	probe        *simProbe
	net          *traceNet   // nil in untraced studies
	stacks       []profStack // CPU profile of a traced study
	checkErr     error
}

// runner holds the seeded inputs of one workload and runs studies on them.
type runner struct {
	w       workload
	design  *sampling.Design
	solver  *solver
	rows    map[string]memberID
	ref     *reference
	ckptDir string
	nStudy  int
	// plan injects group faults; only the self-tests set it.
	plan *faults.Plan
}

func newRunner(w workload, seed uint64, ckptDir string) *runner {
	d := newDesign(w, seed)
	s := newSolver(w.cells, w.steps, seed)
	return &runner{w: w, design: d, solver: s, rows: rowIndex(d), ref: buildReference(w, d, s), ckptDir: ckptDir}
}

func (r *runner) network() transport.Network {
	opts := transport.ForStudyCodec(r.w.cells, r.w.p, r.w.batchSteps, r.w.codec)
	if r.w.tcp {
		return transport.NewTCPNetwork(opts)
	}
	return transport.NewMemNetwork(opts)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process (Linux /proc/self/clear_refs), so that peakRSS afterwards reads
// the peak of what ran since. It reports whether the reset worked.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	return f.Close() == nil && err == nil
}

// peakRSS returns the resident-set high-water mark (VmHWM) in bytes.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// run executes one study through launcher.New(...).Run(). With buf non-nil
// the study is traced: its network is decorated and its simulation records
// spans. Everything after the result fields are held — the correctness
// check, the failure accounting and the checkpoint clean-up — is outside
// the timed window.
func (r *runner) run(buf *spanBuf) (*study, error) {
	w := r.w
	r.nStudy++
	probe := &simProbe{
		inner: r.solver, rows: r.rows, epoch: time.Now(),
		groupStart: make([]atomic.Int64, w.groups), groupEnd: make([]atomic.Int64, w.groups),
	}
	st := &study{probe: probe}
	dir := ""
	if w.checkpoint {
		dir = filepath.Join(r.ckptDir, fmt.Sprintf("study-%d", r.nStudy))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	obs0 := readObs()
	var prof bytes.Buffer
	if buf != nil {
		// The profile covers the study's timed window only, so the harness's
		// work between studies is not charged to any layer.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // error paths; a second stop is a no-op
	}
	resetPeakRSS()
	cpu0 := cpuTime()

	netw := r.network()
	if buf != nil {
		probe.epoch, probe.buf = buf.epoch, buf
		probe.root = buf.open(kindStudy, noParent, noTrace, noTrace, buf.now())
		st.net = newTraceNet(netw, buf, probe.root, w.serverProcs)
		netw = st.net
	}
	cfg := launcher.Config{
		Design: r.design, Sim: probe,
		Cells: w.cells, Timesteps: w.steps, SimRanks: w.simRanks,
		Stats: core.Options{
			MinMax: w.minMax, HigherMoments: w.higherMoments,
			Quantiles: w.quantiles, QuantileEps: w.quantileEps,
		},
		Network:     netw,
		Cluster:     scheduler.New(1 + w.slots),
		ServerProcs: w.serverProcs, ServerNodes: 1, GroupNodes: 1,
		FoldWorkers: w.foldWorkers, BatchSteps: w.batchSteps, WireCodec: w.codec,
		CheckpointDir:       dir,
		DurableDrainTimeout: -1,
		Faults:              r.plan,
	}
	tNew := probe.now()
	l, err := launcher.New(cfg)
	if err != nil {
		return nil, err
	}
	res, lstats, err := l.Run()
	if err != nil {
		return nil, err
	}
	tRun := probe.now()
	fields := collectFields(res, w)
	tEnd := probe.now()
	if buf != nil {
		pprof.StopCPUProfile()
	}
	st.cpu = cpuTime() - cpu0
	st.peakRSS = peakRSS()
	st.obs = readObs().minus(obs0)
	runtime.ReadMemStats(&ms1)
	if buf != nil {
		if st.stacks, err = parseProfile(&prof); err != nil {
			return nil, fmt.Errorf("reading the CPU profile: %w", err)
		}
	}

	st.wall = time.Duration(tEnd - tNew)
	st.setup = time.Duration(probe.first.Load() - tNew)
	st.assemble = time.Duration(tEnd - tRun)
	st.tail = time.Duration(tRun - probe.last.Load())
	if n := probe.runs.Load(); n > 0 {
		st.simMean = time.Duration(probe.runNs.Load() / n)
	}
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcCycles = ms1.NumGC - ms0.NumGC
	st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ws := res.WireStats()
	st.wireBytes, st.rawBytes = ws.WireBytes, ws.RawBytes
	st.stateBytes = res.MemoryBytes()
	st.tuples = res.QuantileTupleCount()
	st.ckpt = res.Checkpoints()
	st.stats = lstats
	if buf != nil {
		buf.close(probe.root, tEnd)
		buf.add(kindAssemble, probe.root, noTrace, noTrace, tRun, tEnd)
	}

	st.checkErr = checkStudy(w, r.ref, res, lstats, fields, st.ckpt)
	st.groupsFailed = failedGroups(lstats, w.groups, st.checkErr)
	return st, nil
}

// failedGroups counts the failed group attempts of one study, or every
// group when the study's output check failed. Each failed attempt — a
// crash, a timeout or zombie kill — ends in exactly one restart, give-up or
// resample, so those three counters count it once.
func failedGroups(s launcher.Stats, groups int, checkErr error) int {
	if checkErr != nil {
		return groups
	}
	return min(s.Restarts+s.GroupsGivenUp+s.GroupsResampled, groups)
}
