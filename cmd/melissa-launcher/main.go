// melissa-launcher orchestrates a complete study over TCP: it starts the
// parallel server, submits every simulation group to the virtual batch
// scheduler, supervises heartbeats/timeouts/retries, and writes the final
// ubiquitous statistic fields — the full three-tier deployment of Fig. 3 in
// one command.
//
// Example:
//
//	melissa-launcher -study tubebundle -nx 96 -ny 32 -groups 64 \
//	    -server-procs 4 -out out/launcher
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"melissa"
	"melissa/internal/chaosflag"
	"melissa/internal/core"
	"melissa/internal/harness"
	"melissa/internal/launcher"
	"melissa/internal/scheduler"
	"melissa/internal/studies"
	"melissa/internal/transport"
)

func main() {
	study := flag.String("study", "synthetic", "study: tubebundle, ishigami or synthetic")
	nx := flag.Int("nx", 96, "tubebundle grid x")
	ny := flag.Int("ny", 32, "tubebundle grid y")
	cells := flag.Int("cells", 1024, "synthetic field size")
	timesteps := flag.Int("timesteps", 10, "synthetic timesteps")
	groups := flag.Int("groups", 64, "simulation groups (n)")
	seed := flag.Uint64("seed", 2017, "design master seed")
	serverProcs := flag.Int("server-procs", 2, "parallel server processes")
	foldWorkers := flag.Int("fold-workers", 0, "fold workers per server process (0 = GOMAXPROCS-aware)")
	batchSteps := flag.Int("batch-steps", 1, "timesteps batched per wire message")
	maxBatchSteps := flag.Int("max-batch-steps", 0,
		"adaptive batching cap: grow batches towards this when the server reports backpressure (overrides -batch-steps)")
	wireCodec := flag.Bool("wire-codec", false,
		"negotiate the compressed field framing between the server and every group (results are bitwise identical)")
	simRanks := flag.Int("sim-ranks", 2, "parallel ranks per simulation")
	clusterNodes := flag.Int("cluster-nodes", 0, "virtual cluster size (0 = unbounded)")
	groupNodes := flag.Int("group-nodes", 1, "nodes per group job")
	ckptDir := flag.String("checkpoint-dir", "", "server checkpoint directory")
	ckptEvery := flag.Duration("checkpoint-interval", time.Minute, "checkpoint period")
	groupTimeout := flag.Duration("group-timeout", time.Minute, "unresponsive-group timeout")
	convergence := flag.Float64("converge-at", 0, "stop when every 95% CI is narrower than this (0 = off)")
	out := flag.String("out", "out/launcher", "output directory for result fields")
	metricsAddr := flag.String("metrics-addr", "",
		"serve live telemetry (/metrics, /status, /debug/pprof) on this address for the study's duration (empty = off)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines")
	chaos := chaosflag.RegisterChaos()
	retry := chaosflag.RegisterRetry()
	flag.Parse()

	if err := melissa.SetLogging(*logLevel, *logJSON); err != nil {
		log.Fatalf("melissa-launcher: -log-level: %v", err)
	}
	st, err := studies.Build(*study, *nx, *ny, *cells, *timesteps)
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}
	var cluster *scheduler.Cluster
	if *clusterNodes > 0 {
		cluster = scheduler.New(*clusterNodes)
	}
	cfg := launcher.Config{
		Design:    st.Design(*groups, *seed),
		Sim:       st.Sim,
		Cells:     st.Cells,
		Timesteps: st.Timesteps,
		SimRanks:  *simRanks,
		Stats:     core.Options{MinMax: true},
		Network: chaos.Wrap(transport.NewTCPNetwork(transport.ForStudyCodec(
			st.Cells, st.P(), max(*batchSteps, *maxBatchSteps), *wireCodec))),
		Cluster:             cluster,
		ServerProcs:         *serverProcs,
		FoldWorkers:         *foldWorkers,
		BatchSteps:          *batchSteps,
		MaxBatchSteps:       *maxBatchSteps,
		WireCodec:           *wireCodec,
		GroupNodes:          *groupNodes,
		GroupTimeout:        *groupTimeout,
		ConvergenceTarget:   *convergence,
		MetricsAddr:         *metricsAddr,
		Retry:               retry.Policy(),
		ResendWindow:        retry.ResendWindow(),
		CheckpointHighWater: retry.CheckpointHighWater(),
		DurableDrainTimeout: retry.DurableDrainTimeout(),
	}
	if *ckptDir != "" {
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointInterval = *ckptEvery
	}

	log.Printf("melissa-launcher: study %q — %d cells x %d timesteps, %d groups x %d simulations, %d server processes, TCP transport",
		st.Name, st.Cells, st.Timesteps, *groups, st.P()+2, *serverProcs)

	l, err := launcher.New(cfg)
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}
	res, stats, err := l.Run()
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}

	log.Printf("study complete in %v", stats.WallClock.Round(time.Millisecond))
	log.Printf("  groups finished/given-up: %d/%d  restarts: %d  reconnects: %d  timeout kills: %d  server restarts: %d  resumed across restarts: %d",
		stats.GroupsFinished, stats.GroupsGivenUp, stats.Restarts, stats.Reconnects, stats.TimeoutKills, stats.ServerRestarts, stats.ResumesAfterServerRestart)
	log.Printf("  messages folded: %d  server state: %.1f MB", res.Messages(), float64(res.MemoryBytes())/1e6)
	if ws := res.WireStats(); ws.Messages > 0 {
		log.Printf("  field traffic: %.1f MB on the wire vs %.1f MB raw (%.2fx, %.1f MB saved)",
			float64(ws.WireBytes)/1e6, float64(ws.RawBytes)/1e6, ws.Ratio(), float64(ws.Saved())/1e6)
	}
	if ck := res.Checkpoints(); ck.Writes > 0 {
		log.Printf("  checkpoints: %d written (%d skipped), %.1f MB durable; ingest stalled %v of %v total write time",
			ck.Writes, ck.Skipped, float64(ck.BytesWritten)/1e6,
			ck.StallDuration.Round(time.Microsecond), ck.WriteDuration.Round(time.Microsecond))
	}
	if stats.Converged {
		log.Printf("  stopped early on convergence (widest CI %.4f)", res.MaxCIWidth(0.95))
	}

	// Write the final statistic fields, one CSV per parameter, mirroring
	// the results.<field>_<statistic>.<timestep> files of the artifact.
	last := st.Timesteps - 1
	for k := 0; k < st.P(); k++ {
		rows := make([][]float64, st.Cells)
		first := res.FirstField(last, k)
		total := res.TotalField(last, k)
		for c := 0; c < st.Cells; c++ {
			rows[c] = []float64{float64(c), first[c], total[c]}
		}
		path := filepath.Join(*out, fmt.Sprintf("results.%s_sobol.%d.csv", st.ParamNames[k], last))
		if err := harness.WriteCSV(path, []string{"cell", "first", "total"}, rows); err != nil {
			log.Fatalf("melissa-launcher: %v", err)
		}
	}
	variance := res.VarianceField(last)
	rows := make([][]float64, st.Cells)
	for c := 0; c < st.Cells; c++ {
		rows[c] = []float64{float64(c), variance[c]}
	}
	if err := harness.WriteCSV(filepath.Join(*out, fmt.Sprintf("results.variance.%d.csv", last)),
		[]string{"cell", "variance"}, rows); err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}
	log.Printf("  statistic fields written under %s", *out)
}
