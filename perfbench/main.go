// Command perfbench is the repository's study benchmark. It drives
// launcher.New(...).Run() — the layer melissa.RunStudy delegates to — on
// seeded synthetic workloads, checks every study's statistics against a
// single-threaded reference, and prints the end-to-end metrics (--trace 0)
// or the per-layer metrics of a separate traced run (--trace 1). All
// figures are measured from outside the program: by timing the harness's
// calls into each layer, by decorating the transport.Network it passes in,
// by reading the obs histograms the server exports, and by profiling the
// traced run. See README.md in this directory.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload study-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	olog "melissa/internal/obs/log"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line the benchmark prints.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for checkpoints, spans and results")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, workdir string) error {
	olog.Default.SetLevel(olog.Warn)
	var selected []workload
	if name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	host := hostContext(dir)
	fmt.Println("host:", host)

	total := outcome{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(seconds * float64(time.Second) / float64(len(selected)))
	for _, w := range selected {
		out, err := measure(w, seed, budget, traced, dir, workdir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printMetrics(w.name, out)
		total.Correct = total.Correct && out.Correct
		total.Attempted += out.Attempted
		total.Failed += out.Failed
		for k, m := range out.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
		if err := saveResult(workdir, w.name, seed, traced, host, out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(name string, out outcome) {
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", name, out.Correct, out.Attempted, out.Failed)
	for _, k := range keys {
		fmt.Printf("%-28s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

// measure makes one run of a workload: set-up, a warm-up study, then
// studies until the time budget is spent (and at least the workload's
// minimum count). An untraced run reports the end-to-end metrics; a traced
// run spends half its budget on untraced studies (the overhead baseline)
// and half on traced, profiled studies, then replays each layer alone.
func measure(w workload, seed uint64, budget time.Duration, traced bool, dir, workdir string) (outcome, error) {
	r := newRunner(w, seed, dir)
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	record := func(st *study) {
		out.Attempted += w.groups
		out.Failed += st.groupsFailed
		if st.checkErr != nil {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "%s: study check failed: %v\n", w.name, st.checkErr)
		}
	}
	loop := func(d time.Duration, least int, buf *spanBuf) ([]*study, error) {
		var sts []*study
		start := time.Now()
		for len(sts) < least || time.Since(start) < d {
			st, err := r.run(buf)
			if err != nil {
				return nil, err
			}
			record(st)
			sts = append(sts, st)
			// Start every study from the same heap: collected, with the
			// freed memory handed back to the OS.
			debug.FreeOSMemory()
		}
		return sts, nil
	}
	if _, err := loop(0, 1, nil); err != nil { // warm-up, checked but not reported
		return out, err
	}

	if !traced {
		sts, err := loop(budget, w.minStudies, nil)
		if err != nil {
			return out, err
		}
		endToEnd(out.Metrics, w, sts)
		return out, nil
	}

	base, err := loop(budget/2, max(1, w.minStudies/2), nil)
	if err != nil {
		return out, err
	}
	buf := newSpanBuf(spanCapacity(w, budget/2, median(studyWalls(base))))
	sts, err := loop(budget/2, max(1, w.minStudies/2), buf)
	if err != nil {
		return out, err
	}
	rep, err := r.replay()
	if err != nil {
		return out, err
	}
	var stacks []profStack
	for _, st := range sts {
		stacks = append(stacks, st.stacks...)
	}
	perLayer(out.Metrics, w, base, sts, buf, rep, cpuShares(stacks))
	spanPath := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.tsv", w.name, seed))
	if err := writeSpans(spanPath, buf.recorded()); err != nil {
		return out, err
	}
	return out, nil
}

// cpuProfileHz raises the profiler's sampling rate above the default 100 Hz
// so short traced runs still give every layer enough samples.
const cpuProfileHz = 1000

// spanCapacity sizes the span buffer for the traced studies: per study, one
// span per emit, simulation, send and receive of data, with room for
// control traffic, times the studies the budget fits plus slack.
func spanCapacity(w workload, budget time.Duration, wall float64) int {
	sims := w.groups * (w.p + 2)
	frames := w.groups * w.serverProcs * w.simRanks * ((w.steps + w.batchSteps - 1) / w.batchSteps)
	perStudy := sims*(w.steps+1) + 2*frames + 64*w.groups + 256
	studies := max(w.minStudies, int(budget.Seconds()/math.Max(wall, 1e-3)))
	return perStudy * (2*studies + 4)
}

func studyWalls(sts []*study) []float64 {
	out := make([]float64, len(sts))
	for i, st := range sts {
		out[i] = st.wall.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(sts []*study, f func(*study) float64) float64 {
	xs := make([]float64, len(sts))
	for i, st := range sts {
		xs[i] = f(st)
	}
	return median(xs)
}

func meanOf(sts []*study, f func(*study) float64) float64 {
	var sum float64
	for _, st := range sts {
		sum += f(st)
	}
	return sum / float64(len(sts))
}

const mb = 1e6

// endToEnd fills the user-visible metrics: per-study medians over the run's
// studies, so a single study landing on an unlucky timer tick cannot move
// them.
func endToEnd(m map[string]metric, w workload, sts []*study) {
	wall := medianOf(sts, func(s *study) float64 { return s.wall.Seconds() })
	m["study_wall_s"] = metric{wall, "s"}
	m["setup_s"] = metric{medianOf(sts, func(s *study) float64 { return s.setup.Seconds() }), "s"}
	m["group_steps_per_s"] = metric{float64(w.groups*w.steps) / wall, "1/s"}
	m["sim_exec_mean_ms"] = metric{medianOf(sts, func(s *study) float64 { return ms(s.simMean) }), "ms"}
	m["cpu_s"] = metric{medianOf(sts, func(s *study) float64 { return s.cpu.Seconds() }), "s"}
	m["alloc_MB"] = metric{medianOf(sts, func(s *study) float64 { return float64(s.allocBytes) / mb }), "MB"}
	m["peak_rss_MB"] = metric{medianOf(sts, func(s *study) float64 { return float64(s.peakRSS) / mb }), "MB"}
	m["wire_MB"] = metric{medianOf(sts, func(s *study) float64 { return float64(s.wireBytes) / mb }), "MB"}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuBuckets are the cpu.* shares always reported: the program's packages a
// study runs, the synthetic solver, the harness, the collector and the
// rest. A package outside this list is charged to cpu.other.
var cpuBuckets = []string{
	"sobol", "core", "quantiles", "codec", "client", "wire", "transport", "server",
	"launcher", "stats", "enc", "mesh", "checkpoint", "obs", "scheduler", "sampling",
	"sim", "bench", "runtime_gc", "runtime_sched", "other",
}

// perLayer fills the per-layer metrics of a traced run: per-study means
// over the traced studies, the isolated replays, the CPU shares and the
// tracing overhead against the untraced studies of the same run.
func perLayer(m map[string]metric, w workload, base, sts []*study, buf *spanBuf, rep replays, shares map[string]float64) {
	mean := func(f func(*study) float64) float64 { return meanOf(sts, f) }
	nsMs := func(ns int64) float64 { return float64(ns) / 1e6 }

	m["trace.overhead_share"] = metric{median(studyWalls(sts))/median(studyWalls(base)) - 1, "share"}
	m["trace.studies"] = metric{float64(len(sts)), "count"}
	m["trace.spans_dropped"] = metric{float64(buf.dropped.Load()), "count"}

	m["launcher.tail_ms"] = metric{mean(func(s *study) float64 { return ms(s.tail) }), "ms"}
	var gaps []float64
	for _, s := range sts {
		starts := make([]int64, w.groups)
		ends := make([]int64, w.groups)
		for g := range starts {
			starts[g], ends[g] = s.probe.groupStart[g].Load(), s.probe.groupEnd[g].Load()
		}
		for _, g := range slotGaps(starts, ends, w.slots) {
			gaps = append(gaps, nsMs(g))
		}
	}
	m["launcher.slot_gap_ms"] = metric{meanFloat(gaps), "ms"}
	m["launcher.inbox_frames"] = metric{mean(func(s *study) float64 { return float64(s.net.recvFrames[roleLauncher].Load()) }), "count"}

	var emitNs, runNs int64
	for _, s := range sts {
		emitNs += s.probe.emitNs.Load()
		runNs += s.probe.runNs.Load()
	}
	emitShare := float64(emitNs) / math.Max(float64(runNs), 1)
	m["client.emit_block_ms"] = metric{mean(func(s *study) float64 { return nsMs(s.probe.emitNs.Load()) }), "ms"}
	m["client.emit_block_share"] = metric{emitShare, "share"}
	var emits []float64
	for _, sp := range buf.recorded() {
		if sp.kind == kindEmit {
			emits = append(emits, float64(sp.end-sp.start)/1e3)
		}
	}
	tail, pct := tailPercentile(emits)
	m["client.emit_tail_us"] = metric{tail, "us"}
	m["client.emit_tail_pct"] = metric{pct, "%"}
	m["client.emit_tail_samples"] = metric{float64(len(emits)), "count"}
	var dials, dialNs int64
	for _, s := range sts {
		dials += s.net.dials.Load()
		dialNs += s.net.dialNanos.Load()
	}
	m["client.dial_ms"] = metric{nsMs(dialNs) / math.Max(float64(dials), 1), "ms"}
	m["sim.compute_share"] = metric{1 - emitShare, "share"}
	m["sim.no_output_ms"] = metric{ms(rep.noOutput), "ms"}

	m["transport.send_frames"] = metric{mean(func(s *study) float64 { f, _, _ := s.net.dataTotals(); return float64(f) }), "count"}
	m["transport.send_MB"] = metric{mean(func(s *study) float64 { _, b, _ := s.net.dataTotals(); return float64(b) / mb }), "MB"}
	m["transport.send_block_ms"] = metric{mean(func(s *study) float64 { _, _, ns := s.net.dataTotals(); return nsMs(ns) }), "ms"}

	m["server.inbox_busy_ms"] = metric{mean(func(s *study) float64 { return nsMs(s.net.recvBusy[roleServer].Load()) }), "ms"}
	m["server.inbox_wait_ms"] = metric{mean(func(s *study) float64 { return nsMs(s.net.recvWait[roleServer].Load()) }), "ms"}
	m["server.route_ms"] = metric{mean(func(s *study) float64 { return 1e3 * s.obs.sum[obsRoute] }), "ms"}
	m["server.decode_ms"] = metric{mean(func(s *study) float64 { return 1e3 * s.obs.sum[obsDecode] }), "ms"}

	m["core.fold_ms"] = metric{mean(func(s *study) float64 { return 1e3 * s.obs.sum[obsFold] }), "ms"}
	m["core.fold_calls"] = metric{mean(func(s *study) float64 { return float64(s.obs.count[obsFold]) }), "count"}
	m["core.update_group_us"] = metric{float64(rep.updateGroup) / 1e3, "us"}
	m["core.ci_scan_ms"] = metric{ms(rep.ciScan), "ms"}
	m["core.state_MB"] = metric{mean(func(s *study) float64 { return float64(s.stateBytes) / mb }), "MB"}

	m["quantiles.tuples"] = metric{mean(func(s *study) float64 { return float64(s.tuples) }), "count"}
	m["quantiles.count_sweep_ms"] = metric{ms(rep.countSweep), "ms"}

	m["codec.decompress_ms"] = metric{mean(func(s *study) float64 { return 1e3 * s.obs.sum[obsCodec] }), "ms"}
	m["codec.ratio"] = metric{mean(func(s *study) float64 { return float64(s.rawBytes) / math.Max(float64(s.wireBytes), 1) }), "ratio"}
	m["codec.compress_ms"] = metric{ms(rep.compress), "ms"}

	m["checkpoint.writes"] = metric{mean(func(s *study) float64 { return float64(s.ckpt.Writes) }), "count"}
	m["checkpoint.write_ms"] = metric{mean(func(s *study) float64 { return ms(s.ckpt.WriteDuration) }), "ms"}
	m["checkpoint.stall_ms"] = metric{mean(func(s *study) float64 { return ms(s.ckpt.StallDuration) }), "ms"}
	m["checkpoint.MB"] = metric{mean(func(s *study) float64 { return float64(s.ckpt.BytesWritten) / mb }), "MB"}
	m["checkpoint.replay_write_ms"] = metric{ms(rep.ckptWrite), "ms"}

	m["result.assemble_ms"] = metric{mean(func(s *study) float64 { return ms(s.assemble) }), "ms"}

	m["gc.cycles"] = metric{mean(func(s *study) float64 { return float64(s.gcCycles) }), "count"}
	m["gc.pause_ms"] = metric{mean(func(s *study) float64 { return ms(s.gcPause) }), "ms"}

	for _, b := range cpuBuckets {
		m["cpu."+b] = metric{0, "share"}
	}
	for b, v := range shares {
		if _, listed := m["cpu."+b]; !listed {
			b = "other"
		}
		m["cpu."+b] = metric{m["cpu."+b].Value + v, "share"}
	}

	self := selfTimes(buf.recorded())
	for k, d := range self {
		m["span."+kindNames[k]+".self_ms"] = metric{ms(d) / float64(len(sts)), "ms"}
	}
}

func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile returns the highest of a fixed ladder of percentiles that
// still has at least ten samples beyond it, and its value.
func tailPercentile(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		if float64(len(s))*(1-p/100) >= 10 || p == 50 {
			i := int(math.Ceil(p/100*float64(len(s)))) - 1
			return s[max(i, 0)], p
		}
	}
	return s[len(s)-1], 100
}

// hostContext records what the figures depend on: core count, GOMAXPROCS,
// the Go version and the filesystem the checkpoints are written to.
func hostContext(dir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"ckpt_fs":    fsType(dir),
		// peak_rss_MB is per study where the kernel lets the high-water
		// mark be reset, else the process high-water mark.
		"peak_rss_per_study": resetPeakRSS(),
	}
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// saveResult keeps every run's figures with its host context next to the
// spans, for later comparison.
func saveResult(workdir, name string, seed uint64, traced bool, host map[string]any, out outcome) error {
	b, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "traced": traced, "host": host, "result": out,
	}, "", "  ")
	if err != nil {
		return err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(workdir, fmt.Sprintf("result-%s-%s-%d.json", name, mode, seed)), b, 0o644)
}
