package main

import (
	"fmt"
	"math"
	"math/rand"

	"melissa/internal/sampling"
)

// workload is one study shape the benchmark drives through the launcher.
// The shapes are chosen so that each stresses a different layer; the
// reasons are recorded in README.md next to this file.
type workload struct {
	name        string
	cells       int
	steps       int
	p           int
	groups      int
	serverProcs int
	foldWorkers int
	simRanks    int
	batchSteps  int
	// slots is the number of groups the cluster holds at once (the server
	// job takes one more node). The load is closed-loop: a group starts only
	// when one of these slots frees.
	slots int
	tcp   bool
	codec bool
	// quantiles, minMax and higherMoments select optional statistics;
	// quantileEps is the sketch rank error (0 = the sketch's default).
	quantiles     []float64
	quantileEps   float64
	minMax        bool
	higherMoments bool
	// checkpoint writes exactly one final checkpoint per server process per
	// study (no periodic timer), so the checkpoint count repeats per run.
	checkpoint bool
	// minStudies is the least number of timed studies a run makes, even
	// when --seconds runs out first.
	minStudies int
}

var workloads = []workload{
	{
		name: "study-churn", cells: 512, steps: 4, p: 2, groups: 16,
		serverProcs: 2, foldWorkers: 2, simRanks: 1, batchSteps: 1, slots: 2,
		minStudies: 20,
	},
	{
		name: "fold-stream", cells: 16384, steps: 16, p: 6, groups: 32,
		serverProcs: 1, foldWorkers: 2, simRanks: 1, batchSteps: 4, slots: 2,
		minStudies: 3,
	},
	{
		name: "quantile-ckpt-tcp", cells: 4096, steps: 10, p: 3, groups: 24,
		serverProcs: 2, foldWorkers: 1, simRanks: 1, batchSteps: 1, slots: 1,
		tcp: true, codec: true, quantiles: []float64{0.05, 0.5, 0.95}, quantileEps: 0.05,
		minMax: true, higherMoments: true, checkpoint: true,
		minStudies: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// solver is the seeded synthetic simulation. Every output step costs one
// axpy over precomputed basis arrays — field_t = u_t + g(row)·v_t — so the
// load generator stays cheap next to the statistics it feeds, and every
// field is reproducible from (seed, row) for the reference check.
type solver struct {
	cells, steps int
	u, v         [][]float64
}

func newSolver(cells, steps int, seed uint64) *solver {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &solver{cells: cells, steps: steps, u: make([][]float64, steps), v: make([][]float64, steps)}
	for t := 0; t < steps; t++ {
		s.u[t] = make([]float64, cells)
		s.v[t] = make([]float64, cells)
		phase := rng.Float64() * 2 * math.Pi
		for i := 0; i < cells; i++ {
			x := float64(i) / float64(cells)
			s.u[t][i] = math.Sin(2*math.Pi*x+phase) + 0.01*rng.NormFloat64()
			s.v[t][i] = 1 + 0.5*math.Cos(4*math.Pi*x+phase) + 0.01*rng.NormFloat64()
		}
	}
	return s
}

// response is the scalar model the fields scale with: an Ishigami-like
// function, so the Sobol' indices are non-trivial and interactions exist.
func response(row []float64) float64 {
	g := math.Sin(row[0]) + 7*math.Pow(math.Sin(row[1%len(row)]), 2)
	if len(row) > 2 {
		g += 0.1 * math.Pow(row[2], 4) * math.Sin(row[0])
	}
	for k := 3; k < len(row); k++ {
		g += math.Sin(row[k]) / float64(k)
	}
	return g
}

// field writes step t of the simulation for row into dst.
func (s *solver) field(t int, a float64, dst []float64) {
	u, v := s.u[t], s.v[t]
	for i := range dst {
		dst[i] = u[i] + a*v[i]
	}
}

// Run implements client.Simulation.
func (s *solver) Run(row []float64, emit func(step int, field []float64) bool) {
	a := response(row)
	buf := make([]float64, s.cells)
	for t := 0; t < s.steps; t++ {
		s.field(t, a, buf)
		if !emit(t, buf) {
			return
		}
	}
}

// newDesign builds the pick-freeze design of a workload from the seed.
func newDesign(w workload, seed uint64) *sampling.Design {
	params := make([]sampling.Distribution, w.p)
	for k := range params {
		params[k] = sampling.Uniform{Low: -math.Pi, High: math.Pi}
	}
	return sampling.NewDesign(params, w.groups, seed)
}
