// melissa-server runs a standalone parallel Melissa server over TCP: M
// processes (goroutines with independent endpoints), each owning one block
// of the mesh, folding whatever simulation groups connect and push.
//
// The main-process address is printed on stdout (and optionally written to
// a file) so launchers and clients can find it; simulation groups retrieve
// the full layout through the dynamic-connection handshake.
//
// Example (two shells):
//
//	melissa-server -cells 4096 -timesteps 10 -p 3 -procs 4 -addr-file /tmp/melissa.addr
//	melissa-client -server $(cat /tmp/melissa.addr) -group 0 ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"melissa"
	"melissa/internal/chaosflag"
	"melissa/internal/core"
	"melissa/internal/quantiles"
	"melissa/internal/server"
	"melissa/internal/transport"
)

func main() {
	procs := flag.Int("procs", 2, "server processes (M)")
	foldWorkers := flag.Int("fold-workers", 0, "fold workers per process (0 = GOMAXPROCS-aware)")
	cells := flag.Int("cells", 1024, "mesh cells per field")
	timesteps := flag.Int("timesteps", 10, "output timesteps per simulation")
	p := flag.Int("p", 3, "number of uncertain parameters")
	bind := flag.String("bind", "127.0.0.1:0", "bind address pattern (port 0 = auto)")
	addrFile := flag.String("addr-file", "", "write the main process address to this file")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory (enables checkpointing)")
	ckptEvery := flag.Duration("checkpoint-interval", 10*time.Minute, "checkpoint period")
	restore := flag.Bool("restore", false, "restore from the last checkpoint before serving")
	launcherAddr := flag.String("launcher", "", "launcher address for heartbeats/reports")
	groupTimeout := flag.Duration("group-timeout", 5*time.Minute, "unresponsive-group timeout (paper: 300s)")
	batchSteps := flag.Int("batch-steps", 4, "largest client -batch-steps expected (sizes the receive buffers)")
	maxBatchSteps := flag.Int("max-batch-steps", 0, "largest client -max-batch-steps expected (adaptive batching; sizes the receive buffers)")
	wireCodec := flag.Bool("wire-codec", false,
		"advertise the compressed field framing to clients (delta-XOR + entropy coding per fold shard; results are bitwise identical)")
	minMax := flag.Bool("minmax", false, "track per-cell min/max over the A/B samples")
	threshold := flag.String("threshold", "", "count per-cell exceedances of this value (empty = off)")
	higherMoments := flag.Bool("higher-moments", false, "track per-cell skewness/kurtosis")
	quantileList := flag.String("quantiles", "", "comma-separated quantile probes, e.g. 0.05,0.5,0.95 (empty = off)")
	quantileEps := flag.Float64("quantile-eps", quantiles.DefaultEpsilon, "quantile sketch rank error ε")
	quantileBudget := flag.Float64("quantile-memory-budget", 0,
		"per-cell-per-timestep sketch memory budget in bytes; derives ε (overrides -quantile-eps)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve live telemetry (/metrics, /status, /debug/pprof) on this address (empty = off)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON lines")
	chaos := chaosflag.RegisterChaos()
	flag.Parse()

	if err := melissa.SetLogging(*logLevel, *logJSON); err != nil {
		log.Fatalf("melissa-server: -log-level: %v", err)
	}
	if *metricsAddr != "" {
		ep, err := melissa.ServeTelemetry(*metricsAddr)
		if err != nil {
			log.Fatalf("melissa-server: -metrics-addr: %v", err)
		}
		defer ep.Close()
		log.Printf("melissa-server: telemetry at http://%s/metrics", ep.Addr())
	}

	eps := *quantileEps
	if *quantileBudget > 0 {
		eps = quantiles.EpsForBudget(*quantileBudget)
		log.Printf("melissa-server: quantile budget %.0f B/cell/step -> eps %.4g (~%.0f tuples/cell/step)",
			*quantileBudget, eps, quantiles.TuplesPerCell(eps))
	}
	stats := core.Options{
		MinMax:        *minMax,
		HigherMoments: *higherMoments,
		QuantileEps:   eps,
	}
	if *threshold != "" {
		th, err := strconv.ParseFloat(*threshold, 64)
		if err != nil {
			log.Fatalf("melissa-server: -threshold: %v", err)
		}
		stats.Threshold = &th
	}
	probes, err := quantiles.ParseList(*quantileList)
	if err != nil {
		log.Fatalf("melissa-server: -quantiles: %v", err)
	}
	stats.Quantiles = probes

	cfg := server.Config{
		Procs:       *procs,
		FoldWorkers: *foldWorkers,
		Cells:       *cells,
		Timesteps:   *timesteps,
		P:           *p,
		Stats:       stats,
		Network: chaos.Wrap(transport.NewTCPNetwork(transport.ForStudyCodec(
			*cells, *p, max(*batchSteps, *maxBatchSteps), *wireCodec))),
		GroupTimeout: *groupTimeout,
		LauncherAddr: *launcherAddr,
		WireCodec:    *wireCodec,
	}
	if *ckptDir != "" {
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointInterval = *ckptEvery
	}
	_ = *bind // the TCP network always binds loopback:auto per process

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("melissa-server: %v", err)
	}
	if *restore {
		if err := srv.Restore(); err != nil {
			log.Fatalf("melissa-server: restore: %v", err)
		}
		log.Printf("melissa-server: restored from %s", *ckptDir)
	}

	fmt.Printf("melissa-server: main process at %s\n", srv.MainAddr())
	for rank, addr := range srv.Addrs() {
		log.Printf("  process %d: %s (cells [%d,%d))", rank, addr,
			srv.Partitions()[rank].Lo, srv.Partitions()[rank].Hi)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.MainAddr()), 0o644); err != nil {
			log.Fatalf("melissa-server: %v", err)
		}
	}

	srv.Start()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("melissa-server: stopping (final checkpoint: %v)", *ckptDir != "")
	srv.Stop(*ckptDir != "")

	res := srv.Result()
	tracker := res.Tracker()
	log.Printf("melissa-server: done — %d messages, %d finished groups, %d running",
		res.Messages(), len(tracker.Finished()), len(tracker.Running()))
	if ws := res.WireStats(); ws.Messages > 0 {
		log.Printf("melissa-server: field traffic — %.1f MB on the wire vs %.1f MB raw (%.2fx, %.1f MB saved)",
			float64(ws.WireBytes)/1e6, float64(ws.RawBytes)/1e6, ws.Ratio(), float64(ws.Saved())/1e6)
	}
	if ck := res.Checkpoints(); ck.Writes > 0 {
		log.Printf("melissa-server: checkpoints — %d written (%d skipped), %.1f MB durable; ingest stalled %v of %v total write time",
			ck.Writes, ck.Skipped, float64(ck.BytesWritten)/1e6,
			ck.StallDuration.Round(time.Microsecond), ck.WriteDuration.Round(time.Microsecond))
	}
}
