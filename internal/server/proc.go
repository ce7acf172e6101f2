package server

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/codec"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/mesh"
	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// procConfig is everything one server process needs, including the global
// layout it advertises to connecting groups.
type procConfig struct {
	Config
	Rank       int
	Partition  mesh.Partition
	AllAddrs   []string
	Partitions []mesh.Partition
	// FoldShards is every process's resolved fold-worker count, advertised
	// in the Welcome so codec-enabled clients cut their compressed payloads
	// on shard boundaries. Advisory: a process whose pool was resized by a
	// checkpoint restore still decodes misaligned cuts, just less locally.
	FoldShards []int
}

// groupStep keys one in-flight (group, timestep) assembly.
type groupStep struct {
	group, step int
}

// assembly collects the stage-2 pieces of one (group, timestep) until the
// process's whole partition is covered. The inbox owns only the coverage
// bookkeeping (covered/missing, parsed from piece headers); the float
// content of fields is written by the shard workers, each decoding its own
// disjoint cell range straight out of the retained payloads. Assemblies are
// pooled: the last fold worker to finish returns the assembly for reuse, so
// steady-state folding allocates nothing.
type assembly struct {
	step    int
	fields  [][]float64 // p+2 fields over the local partition
	covered []bool
	missing int
	// remaining counts the fold workers that have not yet applied this
	// assembly to their shard; the worker that decrements it to zero
	// retires the assembly.
	remaining atomic.Int32
}

// bulkKind discriminates the three bulk payload framings a bulkMsg can hold.
type bulkKind uint8

const (
	kindData bulkKind = iota
	kindBatch
	kindCBatch
)

// bulkMsg is one retained inbound bulk payload (Data, DataBatch or the
// compressed DataBatchC): the transport buffer with its embedded refcount
// and the parsed lazy header view. The inbox parses and routes it; the shard
// workers share it read-only, each decoding exactly its shard's cell
// sub-range out of the payload bytes (decompressing its own shard-aligned
// block first on the codec path, cached per worker across the batch's
// steps). The final Release recycles the buffer and retires the message.
// bulkMsgs are pooled; gen distinguishes successive payloads parsed into the
// same pooled shell, so worker-side decode caches can key on (msg, gen).
type bulkMsg struct {
	transport.Ref
	data   wire.DataView
	batch  wire.DataBatchView
	cbatch wire.DataBatchCView
	kind   bulkKind
	gen    uint64

	// Set by the inbox while it still holds its own reference:
	tracked bool  // foldWG.Add(1) was charged for this message
	applied int32 // (group, timestep) updates committed via the direct path
}

func (m *bulkMsg) groupID() int {
	switch m.kind {
	case kindBatch:
		return m.batch.GroupID
	case kindCBatch:
		return m.cbatch.GroupID
	}
	return m.data.GroupID
}

func (m *bulkMsg) cellLo() int {
	switch m.kind {
	case kindBatch:
		return m.batch.CellLo
	case kindCBatch:
		return m.cbatch.CellLo
	}
	return m.data.CellLo
}

func (m *bulkMsg) cellHi() int {
	switch m.kind {
	case kindBatch:
		return m.batch.CellHi
	case kindCBatch:
		return m.cbatch.CellHi
	}
	return m.data.CellHi
}

func (m *bulkMsg) numSteps() int {
	switch m.kind {
	case kindBatch:
		return m.batch.NumSteps()
	case kindCBatch:
		return m.cbatch.NumSteps()
	}
	return 1
}

func (m *bulkMsg) numFields() int {
	switch m.kind {
	case kindBatch:
		return m.batch.NumFields()
	case kindCBatch:
		return m.cbatch.NumFields()
	}
	return m.data.NumFields()
}

func (m *bulkMsg) stepTimestep(s int) int {
	switch m.kind {
	case kindBatch:
		return m.batch.StepTimestep(s)
	case kindCBatch:
		return m.cbatch.StepTimestep(s)
	}
	return m.data.Timestep
}

// decodeFieldRange decodes cells [lo, hi) — relative to cellLo() — of field
// f at batch entry s into dst[:hi-lo]. Compressed payloads go through the
// calling worker's decode cache.
func (m *bulkMsg) decodeFieldRange(cc *codecCache, s, f, lo, hi int, dst []float64) {
	switch m.kind {
	case kindBatch:
		m.batch.DecodeFieldRange(s, f, lo, hi, dst)
	case kindCBatch:
		m.decodeCompressedRange(cc, s, f, lo, hi, dst)
	default:
		m.data.DecodeFieldRange(f, lo, hi, dst)
	}
}

// decodeCompressedRange converts cells [lo, hi) of (step s, field f) out of
// the compressed payload: it walks the frame's cell sub-ranges overlapping
// [lo, hi), decompresses each at most once per worker per message (the
// cache), and bit-copies the words into dst. Clients cut sub-ranges on this
// process's shard boundaries, so in steady state a worker decompresses
// exactly its own block; after a pool resize (checkpoint restore) it may
// touch a neighbouring block — correct either way.
func (m *bulkMsg) decodeCompressedRange(cc *codecCache, s, f, lo, hi int, dst []float64) {
	v := &m.cbatch
	nf := v.NumFields()
	for r := 0; r < v.NumRanges() && lo < hi; r++ {
		rlo, rhi := v.RangeBounds(r)
		if rhi <= lo {
			continue
		}
		if rlo >= hi {
			break
		}
		words := cc.rangeWords(m, r)
		rc := rhi - rlo
		olo, ohi := max(lo, rlo), min(hi, rhi)
		block := words[(s*nf+f)*rc : (s*nf+f+1)*rc]
		codec.WordsToFloat64s(dst[olo-lo:ohi-lo], block[olo-rlo:ohi-rlo])
	}
}

// codecCache is one fold worker's decompression state: the codec scratch and
// the per-range decompressed words of the message currently in front of the
// worker. The inbox enqueues every step of a batch back to back, so keying
// on (message, generation) makes each worker decompress its block(s) once
// per message, not once per step. Storage grows to the largest (ranges ×
// block) shape seen and is reused — steady-state decoding allocates nothing.
type codecCache struct {
	dec   codec.Decoder
	msg   *bulkMsg
	gen   uint64
	words [][]uint64
	ready []bool
}

// rangeWords returns the decompressed words of sub-range r of m, reusing the
// cached copy when this worker already expanded it for an earlier step.
func (cc *codecCache) rangeWords(m *bulkMsg, r int) []uint64 {
	if cc.msg != m || cc.gen != m.gen {
		cc.msg, cc.gen = m, m.gen
		nr := m.cbatch.NumRanges()
		if cap(cc.ready) < nr {
			cc.ready = make([]bool, nr)
			cc.words = make([][]uint64, nr)
		}
		cc.ready = cc.ready[:nr]
		cc.words = cc.words[:nr]
		clear(cc.ready)
	}
	if !cc.ready[r] {
		need := m.cbatch.RangeWords(r)
		if cap(cc.words[r]) < need {
			cc.words[r] = make([]uint64, need)
		}
		cc.words[r] = cc.words[r][:need]
		t0 := time.Now()
		// Parse token-scanned every block (codec.Validate), so this cannot
		// fail on a routed message; the check is pure defence in depth.
		if err := m.cbatch.DecompressRange(r, &cc.dec, cc.words[r]); err != nil {
			olog.Errorw("server.codec_decompress_failed", "err", err)
			clear(cc.words[r])
		}
		mCodecSeconds.ObserveSince(t0)
		cc.ready[r] = true
	}
	return cc.words[r]
}

// ciScan asks every fold worker to refresh its shard's cached worst-CI-width
// and publish it. Scans ride the same ordered work channels as assemblies,
// so a worker scans exactly the folds enqueued before the request — no
// quiescing, no stalled pool; each shard's scan is itself incremental
// (core caches per-timestep widths), so a quiet shard answers in O(steps).
type ciScan struct {
	level float64
	// remaining counts the workers that have not yet run this scan; the
	// worker that decrements it to zero completes the scan (foldWG).
	remaining atomic.Int32
}

// foldTask is one unit on a worker channel. Exactly one of scan, ckpt, bulk
// or gate is the task's subject:
//
//   - scan: a convergence-scan request.
//   - ckpt: a checkpoint-snapshot request — the worker compacts and
//     deep-copies its shard into the job's pooled snapshot buffer, then
//     resumes folding; the worker finishing last hands the job to the
//     background writer.
//   - bulk: decode work on a retained payload — the worker decodes its
//     shard's overlap of step `step`'s fields into asm (assembled path) or,
//     when asm is nil, into its own scratch (direct path, the piece covers
//     the whole partition). fold marks the task that completes the
//     (group, timestep): the worker folds its shard after decoding.
//   - gate: a test-only stall; the worker blocks until the channel closes
//     (lets tests back the pipeline up deterministically).
type foldTask struct {
	scan *ciScan
	ckpt *ckptSnap

	bulk *bulkMsg
	step int
	asm  *assembly
	fold bool

	gate chan struct{}
}

// ckptJobBuffers is the snapshot double-buffer depth: one job may be in its
// snapshot phase while the previous one's background write is still in
// flight. A third checkpoint interval firing while both are busy is skipped
// (and logged) rather than queued — checkpoints are periodic state saves,
// not a backlog to drain.
const ckptJobBuffers = 2

// ckptJob is one in-flight two-phase checkpoint: the pooled snapshot buffer
// the shard workers fill (phase 1), the inbox-owned state captured at
// initiation (partition, message count, tracker bytes — consistent with the
// fold stream enqueued before the snapshot tasks), and the timing probes.
// Jobs cycle inbox → workers → background writer → free pool.
type ckptJob struct {
	snap     *core.Snapshot
	lo, hi   int
	messages int64
	tracker  *enc.Writer // tracker state serialized at initiation
	// frontiers is the per-group contiguous fold frontier at initiation —
	// the same state the tracker bytes encode. Once this job's file commits
	// (fsync + rename), the copy is published as the process's durable
	// frontier: exactly the steps a restart from this checkpoint preserves.
	frontiers map[int]int
	start     time.Time
	// stallNs records the longest per-shard snapshot copy — the
	// fold-pipeline blockage attributable to this checkpoint: every lane
	// must pass its snapshot task before its next fold, and the lanes copy
	// concurrently, so the slowest copy bounds the added latency.
	stallNs atomic.Int64
}

// noteStall folds one shard's copy duration into the job's max.
func (j *ckptJob) noteStall(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		cur := j.stallNs.Load()
		if ns <= cur || j.stallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ckptSnap is the phase-1 task fanned out to every shard worker; the worker
// that decrements remaining to zero completes the snapshot and enqueues the
// job on the writer channel (never blocking: at most ckptJobBuffers jobs
// exist).
type ckptSnap struct {
	job       *ckptJob
	remaining atomic.Int32
}

// CheckpointStats aggregates checkpoint timing, the quantity reported in
// Sec. 5.4 (2.75 s mean write, 7.24 s mean read in the paper's setup). The
// two-phase pipeline splits each write into the fold-pipeline stall (the
// per-shard snapshot copies — the only part the ingest path ever waits for)
// and the total wall time including the background encode+fsync.
type CheckpointStats struct {
	// Writes counts completed (durable) checkpoint writes; Skipped counts
	// checkpoint intervals dropped because the previous write was still in
	// flight (the skip-and-log overrun policy).
	Writes  int
	Skipped int
	// WriteDuration is the total wall time from checkpoint initiation to the
	// file being durable, across all writes. StallDuration is the
	// fold-pipeline blockage: per checkpoint, the longest per-shard snapshot
	// copy (the lanes copy concurrently, so the slowest bounds the added
	// latency), summed over checkpoints. Encode, CRC, write, fsync and
	// rename all happen off the run loop and never count as stall.
	WriteDuration time.Duration
	StallDuration time.Duration
	Reads         int
	ReadDuration  time.Duration
	// LastBytes is the size of the most recent checkpoint file;
	// BytesWritten totals all checkpoint bytes made durable.
	LastBytes    int64
	BytesWritten int64
}

// Proc is one Melissa Server process: one partition, one inbox, no shared
// state with its peers. Internally the process is a three-stage pipeline
// (route → shard-decode → fold): the inbox goroutine (run) only parses
// bulk-message headers, validates shape once per message and routes retained
// payloads; the fold workers decode exactly their shard's cell sub-range
// straight out of the shared payload bytes and apply completed
// (group, timestep) updates to their accumulator shard — decode work is
// parallelized across the pool instead of serialized in front of it, and no
// intermediate full-field copy exists on the single-piece fast path.
// Convergence scans are ordinary pipeline tasks: each worker incrementally
// rescans its own shard and publishes the width, so periodic reports read
// atomics instead of quiescing the pool.
type Proc struct {
	cfg  procConfig
	recv transport.Receiver

	acc      *core.ShardedAccumulator
	tracker  *core.GroupTracker
	pending  map[groupStep]*assembly
	lastMsg  map[int]time.Time
	messages int64

	// Per-report scratch for the periodic status scan (inbox-owned):
	// sendReport rebuilds the running/finished/timed-out id lists every
	// interval, and wire.Encode serializes them before the call returns, so
	// the backing arrays are reusable across reports instead of reallocated
	// per scan.
	repRunning  []int
	repFinished []int
	repTimedOut []int
	folds       int64 // completed (group, timestep) updates; read concurrently

	// Wire telemetry (read concurrently via Result.WireStats): bytes of bulk
	// payloads as received vs what the same content costs in the raw framing.
	wireBytes int64
	rawBytes  int64
	bulkGen   uint64 // generation stamp for pooled bulkMsg reuse (inbox-owned)

	// Checkpoint pipeline. ckpt is guarded by ckptMu (the background writer
	// and the inbox both update it). ckptJobs feeds completed snapshots to
	// the writer goroutine; ckptFree recycles job buffers back to the inbox;
	// ckptMade counts lazily created jobs (≤ ckptJobBuffers); ckptWG tracks
	// checkpoints from initiation to durability (the final-checkpoint stop
	// path waits on it).
	ckpt     CheckpointStats
	ckptMu   sync.Mutex
	ckptJobs chan *ckptJob
	ckptFree chan *ckptJob
	ckptMade int
	ckptWG   sync.WaitGroup
	writerWG sync.WaitGroup

	// Fold pipeline. workCh[i] feeds shard i's worker; every task is
	// enqueued on every channel in arrival order, which makes the per-cell
	// update sequence — and therefore the statistics — bitwise identical to
	// the single-threaded fold. foldWG tracks in-flight retained payloads,
	// completed assemblies *and* convergence scans so the inbox can quiesce
	// the pool before any direct read of the accumulator (checkpoints,
	// shutdown, final report). scratch[i] is worker i's private decode
	// target for the direct (single-piece) path, sized to its shard.
	workers  int
	workCh   []chan foldTask
	workerWG sync.WaitGroup
	foldWG   sync.WaitGroup
	asmPool  sync.Pool
	bulkPool sync.Pool
	scratch  [][][]float64

	// Convergence telemetry published by the fold workers: ciWidths[i] is
	// shard i's last scanned worst CI width (as Float64bits), ciScansDone
	// the number of completed whole-pool scans, ciScansStarted (inbox-owned)
	// the number enqueued. Periodic reports read the published values and
	// start a new scan only when none is in flight, so convergence
	// reporting never stalls the fold pipeline.
	ciWidths       []atomic.Uint64
	ciScansDone    atomic.Int64
	ciScansStarted int64

	// Quantile-sketch telemetry published by the same worker scans:
	// qtelTuples[i]/qtelBytes[i] are shard i's retained tuples and byte
	// estimate at its last scan. Summed into gauges, reports and /status —
	// the live half of the PR-4 memory-governor plumbing.
	qtelTuples []atomic.Int64
	qtelBytes  []atomic.Int64

	// Live status counters mirrored out of the inbox-owned tracker at the
	// commit sites, so /status and the per-proc gauges can read group
	// progress without touching the maps (which only the inbox may read).
	statRunning  atomic.Int64
	statFinished atomic.Int64

	// Durable frontier: the per-group contiguous fold frontier as of the
	// last *committed* checkpoint — the only fold state a restarted process
	// is guaranteed to still have. The checkpoint writer (and restore)
	// publish it under durMu; the inbox reads it to answer Welcome and
	// ResumeAck, scrape goroutines read it for /status. durableAtNs is the
	// commit wall clock (unix nanos, 0 = nothing durable yet) feeding the
	// checkpoint-age gauge. statDurableGap mirrors the worst fold-vs-durable
	// gap for lock-free scrapes.
	durMu          sync.Mutex
	durable        map[int]int
	durableAtNs    atomic.Int64
	statDurableGap atomic.Int64
	// ckptReq is set by a client CheckpointReq frame (inbox-owned): the next
	// run-loop pass starts an early, skippable checkpoint instead of waiting
	// out the rest of the interval.
	ckptReq bool

	// met is this process's resolved per-rank gauge set and drop-log
	// rate limiter.
	met procMetrics

	launcher     transport.Sender // lazily dialed
	lastReport   time.Time
	lastCkpt     time.Time
	startedAt    time.Time
	stopFlag     atomic.Bool
	stopCkpt     atomic.Bool
	stoppedMu    sync.Mutex
	stopped      bool
	timedOutSeen map[int]bool
}

// foldWorkers resolves the configured pool width against the machine and
// the partition: 0 means GOMAXPROCS spread across the server processes,
// capped at 8 per process; anything is clamped to [1, partition cells].
func (cfg procConfig) foldWorkers() int {
	w := cfg.FoldWorkers
	if w <= 0 {
		procs := cfg.Procs
		if procs < 1 {
			procs = 1
		}
		w = runtime.GOMAXPROCS(0) / procs
		if w > 8 {
			w = 8
		}
	}
	if w < 1 {
		w = 1
	}
	if n := cfg.Partition.Len(); n > 0 && w > n {
		w = n
	}
	return w
}

func newProc(cfg procConfig, recv transport.Receiver) *Proc {
	workers := cfg.foldWorkers()
	acc := core.NewSharded(cfg.Partition.Len(), cfg.Timesteps, cfg.P, cfg.Stats, workers)
	return &Proc{
		cfg:          cfg,
		recv:         recv,
		acc:          acc,
		workers:      acc.NumShards(),
		tracker:      core.NewGroupTracker(cfg.Timesteps - 1),
		pending:      make(map[groupStep]*assembly),
		lastMsg:      make(map[int]time.Time),
		timedOutSeen: make(map[int]bool),
		ckptJobs:     make(chan *ckptJob, ckptJobBuffers),
		ckptFree:     make(chan *ckptJob, ckptJobBuffers),
		met:          newProcMetrics(cfg.Rank),
	}
}

// Rank returns the process rank.
func (p *Proc) Rank() int { return p.cfg.Rank }

// Partition returns the cell range this process owns.
func (p *Proc) Partition() mesh.Partition { return p.cfg.Partition }

// Accumulator exposes the statistics state (read after the server stopped,
// or while the fold pipeline is quiescent).
func (p *Proc) Accumulator() *core.ShardedAccumulator { return p.acc }

// FoldWorkers returns the resolved fold worker-pool width of this process.
func (p *Proc) FoldWorkers() int { return p.workers }

// Tracker exposes the group bookkeeping (read after the server stopped).
func (p *Proc) Tracker() *core.GroupTracker { return p.tracker }

// Messages returns how many data messages this process folded or discarded.
func (p *Proc) Messages() int64 { return atomic.LoadInt64(&p.messages) }

// Folds returns how many complete (group, timestep) updates this process
// has applied. Safe to read while the server runs; a study of G groups and
// T timesteps is fully assimilated when Folds reaches G·T.
func (p *Proc) Folds() int64 { return atomic.LoadInt64(&p.folds) }

// Checkpoints returns the checkpoint timing statistics. Safe to call while
// the server runs (the background writer updates them concurrently).
func (p *Proc) Checkpoints() CheckpointStats {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	return p.ckpt
}

// requestStop asks the run loop to exit at the next iteration.
func (p *Proc) requestStop(finalCheckpoint bool) {
	p.stopCkpt.Store(finalCheckpoint)
	p.stopFlag.Store(true)
}

// run is the inbox stage of the pipeline: drain the inbox, parse and
// validate bulk-message headers, route retained payloads to the fold
// workers, and perform the periodic duties (reports, heartbeats, timeout
// detection, checkpoints). All maps and trackers are owned by this
// goroutine; the accumulator shards are owned by the workers and only read
// here after quiesce().
func (p *Proc) run() {
	defer p.markStopped()
	defer p.stopWorkers()
	p.startedAt = time.Now()
	p.lastReport = p.startedAt
	p.lastCkpt = p.startedAt

	pollEvery := p.cfg.ReportInterval / 4
	if pollEvery <= 0 || pollEvery > 100*time.Millisecond {
		pollEvery = 100 * time.Millisecond
	}
	for {
		if p.stopFlag.Load() {
			p.drainInbox()
			p.quiesce()
			if p.stopCkpt.Load() && p.cfg.CheckpointDir != "" {
				// The final checkpoint must be durable before the process
				// exits: start it (waiting for a job buffer if a periodic
				// write is still in flight) and block until the background
				// writer commits it.
				p.startCheckpoint(true)
				p.ckptWG.Wait()
			}
			p.sendReport(true) // final status to the launcher
			return
		}
		msg, err := p.recv.Recv(pollEvery)
		switch err {
		case nil:
			p.dispatch(msg.Payload)
		case transport.ErrTimeout:
			// fall through to periodic work
		case transport.ErrClosed:
			return
		}
		now := time.Now()
		if now.Sub(p.lastReport) >= p.cfg.ReportInterval {
			p.lastReport = now
			p.sendHeartbeat(now)
			p.sendReport(false)
			// Keep the convergence/sketch telemetry fresh even when no
			// launcher consumes reports: the scan rides the fold pipeline
			// and publishes the per-shard widths and sketch gauges.
			p.enqueueScanIfIdle(p.cfg.CILevel)
			p.publishDurability(now)
		}
		p.publishStatus()
		if p.cfg.CheckpointDir != "" {
			due := p.cfg.CheckpointInterval > 0 && now.Sub(p.lastCkpt) >= p.cfg.CheckpointInterval
			if !due && p.ckptReq {
				// An early-checkpoint request fires ahead of the interval,
				// but never more often than a quarter interval — requests
				// advance the schedule, they cannot turn it into a busy
				// loop. The spacing is clamped to 250ms so completion-time
				// durable drains stay fast even under production intervals
				// of many minutes (50ms floor when no interval is set).
				minGap := p.cfg.CheckpointInterval / 4
				if minGap <= 0 {
					minGap = 50 * time.Millisecond
				} else if minGap > 250*time.Millisecond {
					minGap = 250 * time.Millisecond
				}
				due = now.Sub(p.lastCkpt) >= minGap
			}
			if due {
				p.ckptReq = false
				p.lastCkpt = now
				p.startCheckpoint(false)
			}
		}
	}
}

// startWorkers launches one fold worker per accumulator shard. Channel
// capacity bounds the routed-but-unprocessed backlog; when workers fall
// behind, the inbox blocks on enqueue and backpressure propagates through
// the transport to the simulations, exactly as in the unsharded design —
// and the queue occupancy is the congestion hint reported to the launcher
// for adaptive client batching.
func (p *Proc) startWorkers() {
	p.workCh = make([]chan foldTask, p.workers)
	p.ciWidths = make([]atomic.Uint64, p.workers)
	p.qtelTuples = make([]atomic.Int64, p.workers)
	p.qtelBytes = make([]atomic.Int64, p.workers)
	p.scratch = make([][][]float64, p.workers)
	for i := range p.workCh {
		lo, hi := p.acc.ShardRange(i)
		fields := make([][]float64, p.cfg.P+2)
		for f := range fields {
			fields[f] = make([]float64, hi-lo)
		}
		p.scratch[i] = fields
		p.workCh[i] = make(chan foldTask, 64)
		p.workerWG.Add(1)
		go p.foldWorker(i, p.workCh[i])
	}
	p.writerWG.Add(1)
	go p.checkpointWriter()
}

// backpressure returns the occupancy fraction [0, 1] of the fold-pipeline
// work queues — the congestion hint piggybacked on reports. Reading channel
// lengths from the inbox is a racy snapshot, which is all a hint needs.
func (p *Proc) backpressure() float64 {
	queued, capacity := 0, 0
	for _, ch := range p.workCh {
		queued += len(ch)
		capacity += cap(ch)
	}
	if capacity == 0 {
		return 0
	}
	return float64(queued) / float64(capacity)
}

// publishStatus refreshes this process's per-rank gauges from the published
// atomics. Called once per run-loop iteration; every update is an atomic
// store over values already maintained elsewhere, so the inbox pays a few
// tens of nanoseconds per pass and never allocates.
func (p *Proc) publishStatus() {
	p.met.backpressure.Set(p.backpressure())
	p.met.groupsRunning.SetInt(p.statRunning.Load())
	p.met.groupsFinished.SetInt(p.statFinished.Load())
	p.met.maxCIWidth.Set(p.publishedCIWidth())
}

// quantileTelemetrySums aggregates the per-shard sketch telemetry published
// by the worker scans. Safe from any goroutine.
func (p *Proc) quantileTelemetrySums() (tuples, bytes int64) {
	for i := range p.qtelTuples {
		tuples += p.qtelTuples[i].Load()
		bytes += p.qtelBytes[i].Load()
	}
	return tuples, bytes
}

// durableStep answers the durable frontier of one group: the last contiguous
// timestep whose fold state survived a checkpoint Commit. -1 when nothing of
// the group is durable yet; wire.NoDurability when this process runs without
// checkpointing (then nothing ever becomes durable, and clients should not
// hold frames past the fold ack). Safe from any goroutine.
func (p *Proc) durableStep(group int) int {
	if p.cfg.CheckpointDir == "" {
		return wire.NoDurability
	}
	p.durMu.Lock()
	defer p.durMu.Unlock()
	s, ok := p.durable[group]
	if !ok {
		return -1
	}
	return s
}

// publishDurable installs a committed checkpoint's frontier copy as the
// process's durable frontier. Called by the background writer after Commit,
// by the inbox after a sync write, and by restore.
func (p *Proc) publishDurable(frontiers map[int]int, at time.Time) {
	p.durMu.Lock()
	p.durable = frontiers
	p.durMu.Unlock()
	p.durableAtNs.Store(at.UnixNano())
}

// publishDurability refreshes the durability telemetry: the checkpoint age
// gauge and the worst per-group fold-vs-durable frontier gap. Runs on the
// inbox at report cadence (it walks the inbox-owned tracker).
func (p *Proc) publishDurability(now time.Time) {
	if p.cfg.CheckpointDir == "" {
		return
	}
	age := 0.0
	if at := p.durableAtNs.Load(); at > 0 {
		age = now.Sub(time.Unix(0, at)).Seconds()
	}
	p.met.ckptAge.Set(age)
	gap := 0
	frontiers := p.tracker.Frontiers()
	p.durMu.Lock()
	for g, last := range frontiers {
		d, ok := p.durable[g]
		if !ok {
			d = -1
		}
		if last-d > gap {
			gap = last - d
		}
	}
	p.durMu.Unlock()
	p.statDurableGap.Store(int64(gap))
	p.met.durableGap.SetInt(int64(gap))
}

// commitTracked is tracker.Commit plus the live status mirror: the
// inbox-owned tracker stays the source of truth, while the atomic counters
// let gauges and /status read group progress mid-study. Group completion is
// a study lifecycle event (Sec. 4.2.2's "finished" list) — logged at Debug
// here because every process sees it; the launcher owns the Info-level
// study event.
func (p *Proc) commitTracked(group, step int) {
	before := p.tracker.State(group)
	p.tracker.Commit(group, step)
	after := p.tracker.State(group)
	if after == before {
		return
	}
	if before == core.GroupUnknown {
		p.statRunning.Add(1)
	}
	if after == core.GroupFinished {
		p.statRunning.Add(-1)
		p.statFinished.Add(1)
		if olog.Default.Enabled(olog.Debug) {
			olog.Debugw("server.group_complete", "rank", p.cfg.Rank, "group", group)
		}
	}
}

// stopWorkers closes the work channels (workers drain what is queued —
// including any pending snapshot tasks), joins the pool, then retires the
// background checkpoint writer, which drains and commits every handed-off
// job before exiting. A checkpoint whose snapshot completed is therefore
// always durable by the time Stop returns.
func (p *Proc) stopWorkers() {
	for _, ch := range p.workCh {
		close(ch)
	}
	p.workerWG.Wait()
	close(p.ckptJobs)
	p.writerWG.Wait()
}

// foldWorker is the decode+fold stage of the pipeline: it owns shard i and
// applies every task, in enqueue order, to its cell range. Bulk tasks are
// decoded — each worker converts only its shard's overlap of the payload's
// cell range, straight out of the shared bytes — and, on the task that
// completes a (group, timestep), folded into the shard. Convergence scans
// refresh the shard's cached CI width and publish it. The worker that
// retires an assembly (last shard folded) publishes the fold and recycles
// its buffers; the worker that drops the last payload reference recycles
// the buffer and retires the message; the worker that finishes a scan last
// completes it.
func (p *Proc) foldWorker(i int, ch chan foldTask) {
	defer p.workerWG.Done()
	shardLo, shardHi := p.acc.ShardRange(i)
	var cc codecCache // this worker's compressed-payload decode state
	for task := range ch {
		switch {
		case task.gate != nil:
			<-task.gate
		case task.scan != nil:
			a := p.acc.ShardAccum(i)
			w := a.MaxCIWidth(task.scan.level)
			p.ciWidths[i].Store(math.Float64bits(w))
			qt, qb := a.QuantileTelemetry()
			p.qtelTuples[i].Store(qt)
			p.qtelBytes[i].Store(qb)
			if task.scan.remaining.Add(-1) == 0 {
				p.ciScansDone.Add(1)
				// Last shard in: fold the per-shard telemetry into the
				// process gauges (the scan already ordered every shard's
				// numbers behind the same fold prefix).
				tuples, bytes := p.quantileTelemetrySums()
				p.met.quantileTuples.SetInt(tuples)
				p.met.sketchBytes.SetInt(bytes)
				p.foldWG.Done()
			}
		case task.ckpt != nil:
			// Phase 1 of a checkpoint: capture this shard into the job's
			// pooled snapshot buffer — one contiguous memmove of the
			// interleaved records (tracker slots ride inside them) plus an
			// O(sketches) copy-on-write freeze of the quantile state. No
			// sketch is compacted or copied here: the background writer
			// compacts the frozen views off the ingest path, and the shard
			// resumes folding the moment the freeze completes.
			job := task.ckpt.job
			t0 := time.Now()
			p.acc.SnapshotShard(i, job.snap)
			d := time.Since(t0)
			job.noteStall(d)
			mCkptSnapshotSeconds.Observe(d.Seconds())
			if task.ckpt.remaining.Add(-1) == 0 {
				p.ckptJobs <- job
				p.foldWG.Done()
			}
		case task.bulk != nil:
			p.runBulkTask(i, shardLo, shardHi, &cc, task)
		}
	}
}

// runBulkTask executes one bulk task on worker i (owning partition-local
// cells [shardLo, shardHi)): decode the shard's overlap of the piece, then
// fold if this task completes the (group, timestep).
func (p *Proc) runBulkTask(i, shardLo, shardHi int, cc *codecCache, task foldTask) {
	m := task.bulk
	part := p.cfg.Partition
	plo := m.cellLo() - part.Lo // piece range, partition-local
	phi := m.cellHi() - part.Lo
	nf := m.numFields()
	if asm := task.asm; asm != nil {
		// Assembled path: decode the (piece ∩ shard) cells into the shared
		// assembly. Workers write disjoint ranges, so no synchronization
		// beyond the task channels is needed.
		olo, ohi := max(plo, shardLo), min(phi, shardHi)
		if olo < ohi {
			t0 := time.Now()
			for f := 0; f < nf; f++ {
				m.decodeFieldRange(cc, task.step, f, olo-plo, ohi-plo, asm.fields[f][olo:ohi])
			}
			mDecodeSeconds.ObserveSince(t0)
		}
		if task.fold {
			t0 := time.Now()
			p.acc.UpdateGroupShard(i, asm.step, asm.fields[0], asm.fields[1], asm.fields[2:])
			mFoldSeconds.ObserveSince(t0)
			if asm.remaining.Add(-1) == 0 {
				atomic.AddInt64(&p.folds, 1)
				mFolds.Inc()
				p.asmPool.Put(asm)
				p.foldWG.Done()
			}
		}
	} else {
		// Direct path: the piece covers the whole partition, so the shard's
		// cells go payload → worker scratch → fold with no assembly copy.
		sc := p.scratch[i]
		t0 := time.Now()
		for f := 0; f < nf; f++ {
			m.decodeFieldRange(cc, task.step, f, shardLo-plo, shardHi-plo, sc[f])
		}
		t1 := time.Now()
		p.acc.ShardAccum(i).UpdateGroup(m.stepTimestep(task.step), sc[0], sc[1], sc[2:])
		mDecodeSeconds.Observe(t1.Sub(t0).Seconds())
		mFoldSeconds.ObserveSince(t1)
	}
	if m.Release() {
		p.retireBulk(m)
	}
}

// retireBulk finishes one bulk message after its final payload release:
// publish the direct-path folds, balance the pipeline-tracking charge and
// pool the message. Runs on whichever goroutine dropped the last reference.
func (p *Proc) retireBulk(m *bulkMsg) {
	if m.applied > 0 {
		atomic.AddInt64(&p.folds, int64(m.applied))
		mFolds.Add(int64(m.applied))
	}
	if m.tracked {
		p.foldWG.Done()
	}
	p.bulkPool.Put(m)
}

// enqueueBulk routes one bulk task to every shard worker, charging the
// payload refcount (one reference per worker) and, once per message, the
// pipeline-tracking WaitGroup.
func (p *Proc) enqueueBulk(m *bulkMsg, task foldTask) {
	if !m.tracked {
		m.tracked = true
		p.foldWG.Add(1)
	}
	m.Retain(int32(len(p.workCh)))
	for _, ch := range p.workCh {
		ch <- task
	}
}

// enqueueScanIfIdle starts a new whole-pool convergence scan unless one is
// still in flight. Scans queue behind the folds already enqueued, so the
// published widths always reflect a prefix of the committed update stream.
func (p *Proc) enqueueScanIfIdle(level float64) {
	if p.ciScansStarted != p.ciScansDone.Load() {
		return // previous scan still riding the queues
	}
	p.ciScansStarted++
	scan := &ciScan{level: level}
	scan.remaining.Store(int32(len(p.workCh)))
	p.foldWG.Add(1)
	for _, ch := range p.workCh {
		ch <- foldTask{scan: scan}
	}
}

// publishedCIWidth aggregates the per-shard widths of the last completed
// scan (+Inf until one has finished — the convergence loop treats the study
// as unconverged until real data arrives).
func (p *Proc) publishedCIWidth() float64 {
	if p.ciScansDone.Load() == 0 {
		return math.Inf(1)
	}
	var worst float64
	for i := range p.ciWidths {
		if w := math.Float64frombits(p.ciWidths[i].Load()); w > worst {
			worst = w
		}
	}
	return worst
}

// quiesce blocks until every enqueued assembly, scan and checkpoint
// snapshot has been processed by every shard worker (a checkpoint's
// background *write* is not waited for — only the final-checkpoint stop path
// needs that, via ckptWG). Only the inbox goroutine may call it (it is the
// only enqueuer), after which the accumulator may be read — and its caches
// mutated — safely until the next enqueue.
func (p *Proc) quiesce() { p.foldWG.Wait() }

// getAssembly returns a reset assembly sized for this partition, reusing a
// retired one when available.
func (p *Proc) getAssembly() *assembly {
	n := p.cfg.Partition.Len()
	if v := p.asmPool.Get(); v != nil {
		asm := v.(*assembly)
		clear(asm.covered)
		asm.missing = n
		return asm
	}
	asm := &assembly{
		fields:  make([][]float64, p.cfg.P+2),
		covered: make([]bool, n),
		missing: n,
	}
	for f := range asm.fields {
		asm.fields[f] = make([]float64, n)
	}
	return asm
}

// drainInbox consumes messages already queued (or still trickling in) so a
// clean stop never discards data the clients consider delivered. It returns
// after the inbox stays quiet for one poll interval.
func (p *Proc) drainInbox() {
	for {
		msg, err := p.recv.Recv(50 * time.Millisecond)
		if err != nil {
			return
		}
		p.dispatch(msg.Payload)
	}
}

func (p *Proc) markStopped() {
	p.stoppedMu.Lock()
	p.stopped = true
	p.stoppedMu.Unlock()
	if p.launcher != nil {
		p.launcher.Close()
	}
	p.recv.Close()
}

// dispatch routes one inbox payload. The bulk data types take the lazy-view
// path: the payload is retained, only its header is parsed here, and the
// float decoding happens on the shard workers (zero steady-state
// allocation, no inbox-side copy). Everything else takes the generic decode
// path, with the buffer recycled immediately.
func (p *Proc) dispatch(payload []byte) {
	switch wire.PayloadType(payload) {
	case wire.TypeData, wire.TypeDataBatch, wire.TypeDataBatchC:
		p.handleBulk(payload)
		return
	}
	msg, err := wire.Decode(payload)
	transport.Recycle(payload)
	if err != nil {
		p.dropFrame("undecodable", dropKeyNoGroup, "err", err)
		return
	}
	switch m := msg.(type) {
	case *wire.Hello:
		p.handleHello(m)
	case *wire.Resume:
		p.handleResume(m)
	case *wire.CheckpointReq:
		p.handleCheckpointReq(m)
	case *wire.Stop:
		p.requestStop(m.Checkpoint)
	case *wire.Heartbeat:
		// Clients may ping data endpoints; nothing to do.
	default:
		p.dropFrame("unexpected_type", dropKeyNoGroup, "type", fmt.Sprintf("%T", msg))
	}
}

// handleHello implements the server side of the dynamic connection handshake
// (Sec. 4.1.3): process zero answers with the full layout so the group can
// open direct connections to every relevant server process.
func (p *Proc) handleHello(m *wire.Hello) {
	if p.cfg.Rank != 0 {
		olog.Warnw("server.hello_misrouted", "rank", p.cfg.Rank, "group", m.GroupID)
		return
	}
	reply, err := p.cfg.Network.Dial(m.ReplyAddr)
	if err != nil {
		olog.Warnw("server.group_unreachable", "group", m.GroupID, "addr", m.ReplyAddr, "err", err)
		return
	}
	defer reply.Close()
	if olog.Default.Enabled(olog.Debug) {
		olog.Debugw("server.group_connect", "group", m.GroupID, "addr", m.ReplyAddr, "caps", m.Caps)
	}
	w := &wire.Welcome{
		Timesteps:  p.cfg.Timesteps,
		Cells:      p.cfg.Cells,
		P:          p.cfg.P,
		ServerAddr: p.cfg.AllAddrs,
		Partitions: p.cfg.Partitions,
		FoldShards: p.cfg.FoldShards,
	}
	// Grant a capability only when this server opted in AND the client
	// advertised it: either side lacking the codec keeps the raw format.
	if p.cfg.WireCodec {
		w.Caps = m.Caps & wire.CapWireCodec
	}
	// A resuming group gets this process's contiguous fold frontier so it can
	// skip recomputed-and-already-folded steps (the client queries the other
	// ranks' frontiers itself, over the direct connections it opens next).
	// The durable frontier rides along unconditionally: it tells the client
	// whether this server checkpoints at all, and up to which step retained
	// frames may be discarded.
	w.LastStep = -1
	if m.Resume {
		if last, ok := p.tracker.LastStep(m.GroupID); ok {
			w.LastStep = last
		}
	}
	w.DurableStep = p.durableStep(m.GroupID)
	if err := reply.Send(wire.Encode(w)); err != nil {
		olog.Warnw("server.welcome_failed", "group", m.GroupID, "err", err)
	}
}

// handleResume answers a resume query from a reconnecting group: any rank
// (not just process zero) reports its contiguous fold frontier, so the
// client resends only the unacked window on the re-established connection. A
// Resume without a reply address is a liveness ping — it refreshes the
// group's message clock (a resumed attempt recomputing already-folded steps
// produces no data traffic) and gets no reply.
func (p *Proc) handleResume(m *wire.Resume) {
	mResumes.Inc()
	p.lastMsg[m.GroupID] = time.Now()
	if m.ReplyAddr == "" {
		return
	}
	last, ok := p.tracker.LastStep(m.GroupID)
	if !ok {
		last = -1
	}
	reply, err := p.cfg.Network.Dial(m.ReplyAddr)
	if err != nil {
		olog.Warnw("server.resume_unreachable", "rank", p.cfg.Rank,
			"group", m.GroupID, "addr", m.ReplyAddr, "err", err)
		return
	}
	defer reply.Close()
	if olog.Default.Enabled(olog.Debug) {
		olog.Debugw("server.group_resume", "rank", p.cfg.Rank, "group", m.GroupID, "last_step", last)
	}
	ack := &wire.ResumeAck{ProcRank: p.cfg.Rank, GroupID: m.GroupID,
		LastStep: last, DurableStep: p.durableStep(m.GroupID)}
	if err := reply.Send(wire.Encode(ack)); err != nil {
		olog.Warnw("server.resume_ack_failed", "rank", p.cfg.Rank, "group", m.GroupID, "err", err)
	}
}

// handleCheckpointReq notes a client's early-checkpoint request (its
// retention ring crossed the durable high-water mark): the checkpoint starts
// on the next run-loop pass, never inline — a flood of requests cannot block
// the inbox, and the run loop's spacing guard keeps the writer out of a busy
// loop. It also refreshes the group's liveness clock: a group throttled by
// its own retention ring is alive and waiting on us.
func (p *Proc) handleCheckpointReq(m *wire.CheckpointReq) {
	mCkptReqs.Inc()
	p.lastMsg[m.GroupID] = time.Now()
	if p.cfg.CheckpointDir == "" {
		return
	}
	p.ckptReq = true
}

// getBulk returns a pooled bulk-message shell ready for parsing.
func (p *Proc) getBulk() *bulkMsg {
	if v := p.bulkPool.Get(); v != nil {
		return v.(*bulkMsg)
	}
	return &bulkMsg{}
}

// handleBulk is the route stage for one Data/DataBatch payload: parse the
// header view, validate the message shape once (field count, cell-range
// bounds — a malformed message is rejected with a single log line, not one
// per step), then route each applicable step to the shard workers, which do
// all float decoding. The payload is retained until every routed task has
// run; the discard-on-replay policy (Sec. 4.2.1) drops steps whose
// (group, timestep) was already committed, and partial assemblies tolerate
// replays by overwriting.
func (p *Proc) handleBulk(payload []byte) {
	t0 := time.Now()
	m := p.getBulk()
	var err error
	switch wire.PayloadType(payload) {
	case wire.TypeDataBatch:
		m.kind = kindBatch
		err = m.batch.Parse(payload)
	case wire.TypeDataBatchC:
		m.kind = kindCBatch
		err = m.cbatch.Parse(payload)
	default:
		m.kind = kindData
		err = m.data.Parse(payload)
	}
	if err != nil {
		p.bulkPool.Put(m)
		transport.Recycle(payload)
		p.dropFrame("undecodable", dropKeyNoGroup, "err", err)
		return
	}
	m.Init(payload, 1) // the inbox's own reference
	m.tracked, m.applied = false, 0
	p.bulkGen++
	m.gen = p.bulkGen
	atomic.AddInt64(&p.messages, 1)
	mMessages.Inc()
	atomic.AddInt64(&p.wireBytes, int64(len(payload)))
	mWireBytes.Add(int64(len(payload)))
	var raw int64
	if m.kind == kindCBatch {
		raw = wire.DataBatchSizeBytes(m.numSteps(), m.numFields(), m.cellHi()-m.cellLo())
	} else {
		raw = int64(len(payload))
	}
	atomic.AddInt64(&p.rawBytes, raw)
	mRawBytes.Add(raw)

	part := p.cfg.Partition
	switch {
	case m.numFields() != p.cfg.P+2:
		p.dropFrame("field_count", uint64(m.groupID()),
			"group", m.groupID(), "fields", m.numFields(), "want", p.cfg.P+2)
	case m.cellLo() < part.Lo || m.cellHi() > part.Hi:
		p.dropFrame("cell_bounds", uint64(m.groupID()),
			"group", m.groupID(), "lo", m.cellLo(), "hi", m.cellHi(),
			"part_lo", part.Lo, "part_hi", part.Hi)
	default:
		p.refreshClock(m, t0)
		for s := 0; s < m.numSteps(); s++ {
			p.routeStep(m, s)
		}
	}
	if m.Release() {
		p.retireBulk(m)
	}
	mRouteSeconds.ObserveSince(t0)
}

// refreshClock advances the group's liveness clock only when the frame can
// touch the contiguous fold frontier (it carries some step ≤ frontier+1). A
// group whose frontier is stalled on a lost frame keeps streaming ahead-steps
// that fold fine, but those must not count as progress — the stall has to
// trip the group timeout so the launcher replays and the hole is filled.
// Well-formed traffic refreshes as before: in-order frames always carry the
// next frontier step, and a sim rank whose pieces feed a pending assembly
// carries steps at the frontier until the assembly completes.
func (p *Proc) refreshClock(m *bulkMsg, t0 time.Time) {
	group := m.groupID()
	next := 0
	if last, ok := p.tracker.LastStep(group); ok {
		next = last + 1
	}
	for s := 0; s < m.numSteps(); s++ {
		if m.stepTimestep(s) <= next {
			p.lastMsg[group] = t0
			return
		}
	}
}

// routeStep routes one (piece, timestep) of a retained bulk message. A
// piece covering the whole partition with no partial assembly pending takes
// the direct path (workers decode-and-fold from the payload, no assembly
// copy); otherwise the inbox tracks coverage from the headers and the
// workers decode into the shared assembly, folding on the task that
// completes it.
func (p *Proc) routeStep(m *bulkMsg, s int) {
	group, step := m.groupID(), m.stepTimestep(s)
	if step < 0 || step >= p.cfg.Timesteps {
		// Out-of-range timesteps would panic the accumulator on a worker
		// goroutine; reject them here with the rest of the shape checks.
		p.dropFrame("timestep_range", uint64(group),
			"group", group, "timestep", step, "timesteps", p.cfg.Timesteps)
		return
	}
	if !p.tracker.ShouldApply(group, step) {
		return // replayed message after a group restart
	}
	part := p.cfg.Partition
	lo, hi := m.cellLo()-part.Lo, m.cellHi()-part.Lo // partition-local
	key := groupStep{group, step}
	asm, pending := p.pending[key]
	if !pending && lo == 0 && hi == part.Len() {
		p.commitTracked(group, step)
		m.applied++
		p.enqueueBulk(m, foldTask{bulk: m, step: s, fold: true})
		return
	}
	if !pending {
		asm = p.getAssembly()
		asm.step = step
		p.pending[key] = asm
	}
	for c := lo; c < hi; c++ {
		if !asm.covered[c] {
			asm.covered[c] = true
			asm.missing--
		}
	}
	task := foldTask{bulk: m, step: s, asm: asm}
	if asm.missing == 0 {
		p.commitTracked(group, step)
		delete(p.pending, key)
		task.fold = true
		asm.remaining.Store(int32(len(p.workCh)))
		p.foldWG.Add(1)
	}
	p.enqueueBulk(m, task)
}

func (p *Proc) ensureLauncher() transport.Sender {
	if p.cfg.LauncherAddr == "" {
		return nil
	}
	if p.launcher == nil {
		s, err := p.cfg.Network.Dial(p.cfg.LauncherAddr)
		if err != nil {
			return nil // launcher temporarily unreachable; retry next tick
		}
		p.launcher = s
	}
	return p.launcher
}

func (p *Proc) sendHeartbeat(now time.Time) {
	s := p.ensureLauncher()
	if s == nil {
		return
	}
	hb := &wire.Heartbeat{
		Sender:     fmt.Sprintf("server-%d", p.cfg.Rank),
		TimeMillis: now.UnixMilli(),
		Epoch:      p.cfg.Epoch,
	}
	if err := s.Send(wire.Encode(hb)); err != nil {
		p.launcher = nil // reconnect next time
	}
}

// sendReport ships the bookkeeping lists of Sec. 4.2.2 to the launcher:
// running and finished groups, plus any group whose message gap exceeded
// the timeout. final marks the stop-path report, which runs after quiesce()
// and may therefore read the accumulator directly; periodic reports must
// not (the flag is a parameter, not a stopFlag read, because stopFlag can
// flip mid-iteration while workers are still folding).
func (p *Proc) sendReport(final bool) {
	s := p.ensureLauncher()
	if s == nil {
		return
	}
	p.repRunning = p.tracker.AppendRunning(p.repRunning)
	p.repFinished = p.tracker.AppendFinished(p.repFinished)
	p.repTimedOut = p.repTimedOut[:0]
	rep := &wire.Report{
		ProcRank: p.cfg.Rank,
		Epoch:    p.cfg.Epoch,
		Running:  p.repRunning,
		Finished: p.repFinished,
		Messages: atomic.LoadInt64(&p.messages),
		// The congestion hint of the adaptive-batching loop: how full the
		// fold-pipeline queues are right now (0 after the stop-path quiesce).
		Backpressure: p.backpressure(),
	}
	// Live sketch telemetry from the last completed worker scan, so the
	// launcher (and a future memory governor) sees quantile memory without
	// quiescing the pool.
	rep.TupleCount, rep.SketchBytes = p.quantileTelemetrySums()
	if p.cfg.GroupTimeout > 0 {
		cutoff := time.Now().Add(-p.cfg.GroupTimeout)
		for _, g := range rep.Running {
			if last, ok := p.lastMsg[g]; ok && last.Before(cutoff) {
				p.repTimedOut = append(p.repTimedOut, g)
			}
		}
		rep.TimedOut = p.repTimedOut
	}
	if p.cfg.ConvergenceReports {
		if final {
			// Final report: the stop path has already quiesced the pool, so
			// an exact inbox-side scan is safe — and cheap, since only the
			// timesteps dirtied after the last worker scan are rescanned.
			rep.MaxCIWidth = p.acc.MaxCIWidth(p.cfg.CILevel)
		} else {
			// Periodic report: publish the last completed worker scan and
			// start the next one; the fold pool never stalls. The value
			// lags the stream by at most one report interval plus queue
			// depth, which only makes the convergence stop conservative.
			rep.MaxCIWidth = p.publishedCIWidth()
			p.enqueueScanIfIdle(p.cfg.CILevel)
		}
	}
	if err := s.Send(wire.Encode(rep)); err != nil {
		p.launcher = nil
	}
}

// startCheckpoint begins one two-phase checkpoint from the run loop:
// snapshot tasks ride the fold pipeline (the only hot-path cost), and a
// background goroutine encodes and fsyncs the frozen image overlapped with
// ongoing ingest. It captures the inbox-owned state (partition, message
// count, tracker) consistent with the fold stream enqueued so far, then fans
// a snapshot task out to every shard worker; each worker processes the task
// after exactly the folds enqueued before it, so the assembled snapshot is
// the accumulator state at that point of the stream. When both job buffers
// are still busy (previous write still in flight) the interval is skipped
// and logged, never queued — unless final is set: the stop path waits for a
// free buffer instead, because it must not drop its checkpoint.
func (p *Proc) startCheckpoint(final bool) {
	job := p.takeCkptJob(final)
	if job == nil {
		p.ckptMu.Lock()
		p.ckpt.Skipped++
		p.ckptMu.Unlock()
		mCkptSkips.Inc()
		olog.Warnw("server.checkpoint_skip", "rank", p.cfg.Rank,
			"reason", "previous write still in flight")
		return
	}
	job.start = time.Now()
	job.stallNs.Store(0)
	job.lo, job.hi = p.cfg.Partition.Lo, p.cfg.Partition.Hi
	job.messages = atomic.LoadInt64(&p.messages)
	job.tracker.Reset()
	p.tracker.Encode(job.tracker)
	job.frontiers = p.tracker.Frontiers()
	snap := &ckptSnap{job: job}
	snap.remaining.Store(int32(len(p.workCh)))
	p.ckptWG.Add(1)
	p.foldWG.Add(1)
	for _, ch := range p.workCh {
		ch <- foldTask{ckpt: snap}
	}
}

// takeCkptJob acquires a free checkpoint job, lazily growing the pool to its
// double-buffer bound. Only the inbox goroutine calls it. With block set it
// waits for the background writer to recycle one.
func (p *Proc) takeCkptJob(block bool) *ckptJob {
	select {
	case job := <-p.ckptFree:
		return job
	default:
	}
	if p.ckptMade < ckptJobBuffers {
		p.ckptMade++
		return &ckptJob{snap: p.acc.NewSnapshot(), tracker: enc.NewWriter(1 << 10)}
	}
	if !block {
		return nil
	}
	return <-p.ckptFree
}

// checkpointWriter is the phase-2 goroutine: it receives completed
// snapshots, streams them to disk fully overlapped with ongoing ingest, and
// recycles the job buffers. It drains every handed-off job before exiting at
// shutdown.
func (p *Proc) checkpointWriter() {
	defer p.writerWG.Done()
	for job := range p.ckptJobs {
		p.writeSnapshot(job)
		p.ckptFree <- job
		p.ckptWG.Done()
	}
}

// writeSnapshot encodes one frozen snapshot into the unchanged dense
// checkpoint format — section by section through the streaming writer, so
// the full payload never materializes in memory — computes the CRC, fsyncs
// and atomically renames. The bytes equal a one-shot checkpoint.Write of the
// partition, message count, compacted accumulator and tracker at the same
// fold state.
func (p *Proc) writeSnapshot(job *ckptJob) {
	path := checkpoint.Filename(p.cfg.CheckpointDir, p.cfg.Rank)
	sw, err := checkpoint.NewStreamWriter(path, checkpoint.Version)
	if err != nil {
		olog.Errorw("server.checkpoint_failed", "rank", p.cfg.Rank, "err", err)
		return
	}
	err = sw.Section(func(w *enc.Writer) {
		w.Int(job.lo)
		w.Int(job.hi)
		w.I64(job.messages)
		job.snap.EncodeHeader(w, core.LayoutCurrent)
	})
	for t := 0; t < job.snap.Timesteps() && err == nil; t++ {
		err = sw.Section(func(w *enc.Writer) { job.snap.EncodeStep(w, core.LayoutCurrent, t) })
	}
	if err == nil {
		err = sw.Section(func(w *enc.Writer) { w.Raw(job.tracker.Bytes()) })
	}
	written := sw.Size()
	if err == nil {
		err = sw.Commit()
	} else {
		sw.Abort()
	}
	elapsed := time.Since(job.start)
	p.ckptMu.Lock()
	// The snapshot copies stalled the fold pipeline whether or not the
	// write then reached the disk; charge them unconditionally so a failing
	// checkpoint directory cannot make the stall telemetry read zero.
	p.ckpt.StallDuration += time.Duration(job.stallNs.Load())
	if err == nil {
		p.ckpt.Writes++
		p.ckpt.WriteDuration += elapsed
		p.ckpt.LastBytes = written
		p.ckpt.BytesWritten += written
	}
	p.ckptMu.Unlock()
	if err != nil {
		olog.Errorw("server.checkpoint_failed", "rank", p.cfg.Rank, "err", err)
		return
	}
	// The file is durable: the frontier captured at initiation is now the
	// process's durable frontier (the job keeps no reference — the map is
	// handed over, not reused).
	p.publishDurable(job.frontiers, time.Now())
	job.frontiers = nil
	mCkptWrites.Inc()
	mCkptBytes.Add(written)
	mCkptWriteSeconds.Observe(elapsed.Seconds())
	olog.Infow("server.checkpoint_commit", "rank", p.cfg.Rank, "bytes", written,
		"elapsed", elapsed, "stall", time.Duration(job.stallNs.Load()))
}

// restore loads the last checkpoint, if any (Sec. 4.2.3 server restart).
// Process zero also sweeps stale .ckpt-* temp files left by a writer that
// crashed mid-checkpoint — pure garbage under the atomic-rename protocol,
// but garbage that would otherwise accumulate across restarts.
func (p *Proc) restore() error {
	if p.cfg.CheckpointDir != "" && p.cfg.Rank == 0 {
		if removed, err := checkpoint.SweepTemps(p.cfg.CheckpointDir); err != nil {
			olog.Warnw("server.temp_sweep_failed", "rank", p.cfg.Rank, "err", err)
		} else if len(removed) > 0 {
			olog.Infow("server.temp_sweep", "rank", p.cfg.Rank,
				"count", len(removed), "files", removed)
		}
	}
	path := checkpoint.Filename(p.cfg.CheckpointDir, p.cfg.Rank)
	if p.cfg.CheckpointDir == "" || !checkpoint.Exists(path) {
		return nil // cold start
	}
	start := time.Now()
	r, version, err := checkpoint.Read(path)
	if err != nil {
		return err
	}
	lo := r.Int()
	hi := r.Int()
	if lo != p.cfg.Partition.Lo || hi != p.cfg.Partition.Hi {
		return fmt.Errorf("server: checkpoint partition [%d,%d) does not match process %d partition [%d,%d)",
			lo, hi, p.cfg.Rank, p.cfg.Partition.Lo, p.cfg.Partition.Hi)
	}
	p.messages = r.I64()
	acc, err := core.DecodeShardedVersion(r, version, p.workers)
	if err != nil {
		return fmt.Errorf("server: process %d: %w", p.cfg.Rank, err)
	}
	if version < checkpoint.V2 && len(p.cfg.Stats.Quantiles) > 0 {
		// The restored accumulator adopts the checkpoint's statistics set;
		// a pre-quantile file cannot resurrect sketch state mid-study.
		olog.Warnw("server.restore_no_quantiles", "rank", p.cfg.Rank, "version", version)
	}
	tracker, err := core.DecodeGroupTrackerVersion(r, version)
	if err != nil {
		return fmt.Errorf("server: process %d: %w", p.cfg.Rank, err)
	}
	p.acc = acc
	p.workers = acc.NumShards()
	p.tracker = tracker
	p.statRunning.Store(int64(len(tracker.Running())))
	p.statFinished.Store(int64(len(tracker.Finished())))
	// After a restore the fold frontier *is* the durable frontier: the whole
	// restored state came from the committed file. Reconnecting groups get it
	// as both the resend point and the retention floor.
	p.publishDurable(tracker.Frontiers(), time.Now())
	// Arm the liveness clock of every restored running group: it grants full
	// grace for the reconnect storm after a server restart, and — crucially —
	// makes a group that never comes back (its data rolled back past what it
	// had drained) trip the group timeout so the launcher replays it instead
	// of hanging the study.
	for _, g := range tracker.Running() {
		p.lastMsg[g] = time.Now()
	}
	p.ckpt.Reads++
	p.ckpt.ReadDuration += time.Since(start)
	return nil
}
