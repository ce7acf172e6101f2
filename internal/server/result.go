package server

import (
	"sync/atomic"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/transport"
)

// Result is the assembled global view of a finished study: per-timestep,
// per-cell Sobol' index fields stitched together from every server process's
// partition. This is the Melissa equivalent of the statistic field files the
// launcher collects at the end of a run (artifact appendix A.4).
type Result struct {
	Cells     int
	Timesteps int
	P         int

	partitions []mesh.Partition
	procs      []*Proc

	// scratch is the per-partition staging slice assemble reuses across
	// field scans — FirstField/TotalField/etc. allocate only the returned
	// global field, not a fresh partition buffer per call. Like the
	// accumulator accessors, the field getters are single-goroutine.
	scratch []float64
}

func newResult(cfg Config, partitions []mesh.Partition, procs []*Proc) *Result {
	return &Result{
		Cells:      cfg.Cells,
		Timesteps:  cfg.Timesteps,
		P:          cfg.P,
		partitions: partitions,
		procs:      procs,
	}
}

// GroupsFolded returns the number of groups folded into timestep t (equal
// across processes once the study has drained).
func (r *Result) GroupsFolded(t int) int64 {
	if len(r.procs) == 0 {
		return 0
	}
	return r.procs[0].acc.N(t)
}

// assemble stitches per-partition fields into one global field.
func (r *Result) assemble(get func(p *Proc, dst []float64) []float64) []float64 {
	out := make([]float64, r.Cells)
	for i, p := range r.procs {
		part := r.partitions[i]
		r.scratch = get(p, r.scratch)
		copy(out[part.Lo:part.Hi], r.scratch[:part.Len()])
	}
	return out
}

// FirstField returns the global first-order Sobol' field S_k(·, t).
func (r *Result) FirstField(t, k int) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.FirstField(t, k, dst)
	})
}

// TotalField returns the global total-order Sobol' field ST_k(·, t).
func (r *Result) TotalField(t, k int) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.TotalField(t, k, dst)
	})
}

// MeanField returns the global output-mean field at timestep t.
func (r *Result) MeanField(t int) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.MeanField(t, dst)
	})
}

// VarianceField returns the global output-variance field at timestep t
// (the Fig. 8 map).
func (r *Result) VarianceField(t int) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.VarianceField(t, dst)
	})
}

// InteractionField returns the global 1−ΣS_k field at timestep t.
func (r *Result) InteractionField(t int) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.InteractionField(t, dst)
	})
}

// QuantileField returns the global per-cell q-quantile estimate of the
// pooled A/B sample at timestep t. Any q in [0, 1] can be queried from the
// per-cell sketches, not only the configured probes; without quantile
// tracking the field is all zeros.
func (r *Result) QuantileField(t int, q float64) []float64 {
	return r.assemble(func(p *Proc, dst []float64) []float64 {
		return p.acc.QuantileField(t, q, dst)
	})
}

// QuantileProbes returns the quantile probe list the accumulators actually
// track — nil when quantiles were not enabled, and also nil after a restore
// from a pre-quantile (v1) checkpoint, which disables the statistic even if
// the configuration requested it. Probes and QuantileField are therefore
// always consistent: non-nil probes imply real sketch state behind them.
func (r *Result) QuantileProbes() []float64 {
	if len(r.procs) == 0 {
		return nil
	}
	return r.procs[0].acc.QuantileProbes()
}

// QuantileTupleCount totals the retained quantile-sketch tuples across all
// processes — the sketch-memory telemetry of the ROADMAP ε-tuning item
// (each tuple is ~24 bytes; divide by Cells×Timesteps for the per-cell
// average the ε guidance works in). Zero when quantiles are disabled.
func (r *Result) QuantileTupleCount() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.acc.QuantileTupleCount()
	}
	return total
}

// MaxCIWidth returns the widest confidence interval over every process.
func (r *Result) MaxCIWidth(level float64) float64 {
	var worst float64
	for _, p := range r.procs {
		if w := p.acc.MaxCIWidth(level); w > worst {
			worst = w
		}
	}
	return worst
}

// MemoryBytes totals the accumulator memory across processes — the Sec. 4.1.1
// server memory model.
func (r *Result) MemoryBytes() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.acc.MemoryBytes()
	}
	return total
}

// PayloadPool snapshots the transport payload-pool counters (process-wide):
// buffer get/put traffic and the reference counts of the retained-payload
// ingest path. After a clean stop with all clients drained,
// PayloadPool().RefsActive() is zero — every payload the shard workers
// shared was released — and Outstanding() counts only buffers still parked
// in transport queues. The audit hook for the zero-copy ingest path.
func (r *Result) PayloadPool() transport.PoolStats {
	return transport.ReadPoolStats()
}

// Checkpoints sums the checkpoint statistics across processes: writes,
// skipped intervals, total and stall (fold-pipeline blockage) wall time,
// and bytes made durable. StallDuration is the snapshot-copy cost only —
// the encode+fsync part of WriteDuration ran overlapped with ingest.
func (r *Result) Checkpoints() CheckpointStats {
	var total CheckpointStats
	for _, p := range r.procs {
		ck := p.Checkpoints()
		total.Writes += ck.Writes
		total.Skipped += ck.Skipped
		total.WriteDuration += ck.WriteDuration
		total.StallDuration += ck.StallDuration
		total.Reads += ck.Reads
		total.ReadDuration += ck.ReadDuration
		total.LastBytes += ck.LastBytes
		total.BytesWritten += ck.BytesWritten
	}
	return total
}

// Messages totals the data messages processed across processes.
func (r *Result) Messages() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.Messages()
	}
	return total
}

// WireStats aggregates the bulk-data byte accounting of a study: how many
// bytes actually crossed the wire versus what the same payloads cost in the
// raw framing. With the codec off the two are equal; with it negotiated,
// RawBytes−WireBytes is the transfer the compression avoided (the in-transit
// bandwidth the Catalyst/ADIOS2 line of work is about limiting).
type WireStats struct {
	Messages  int64 // bulk data messages received
	WireBytes int64 // payload bytes as received
	RawBytes  int64 // what the same content costs uncompressed
}

// Saved returns the bytes the codec kept off the wire.
func (ws WireStats) Saved() int64 { return ws.RawBytes - ws.WireBytes }

// Ratio returns RawBytes/WireBytes (1.0 when nothing was compressed).
func (ws WireStats) Ratio() float64 {
	if ws.WireBytes == 0 {
		return 1
	}
	return float64(ws.RawBytes) / float64(ws.WireBytes)
}

// WireStats totals the wire-byte telemetry across processes. Safe to read
// while the server runs (the counters are atomics).
func (r *Result) WireStats() WireStats {
	var total WireStats
	for _, p := range r.procs {
		total.Messages += p.Messages()
		total.WireBytes += atomic.LoadInt64(&p.wireBytes)
		total.RawBytes += atomic.LoadInt64(&p.rawBytes)
	}
	return total
}

// Tracker returns a merged view of group states across all processes.
func (r *Result) Tracker() *core.GroupTracker {
	merged := core.NewGroupTracker(r.Timesteps - 1)
	for _, p := range r.procs {
		merged.Merge(p.tracker)
	}
	return merged
}
