package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mobilegossip"
)

// sweepRunner is fig1-sweep: the paper's Figure 1 rows through RunSweep —
// blindmatch, sharedbit and simsharedbit on regenerated 4-regular graphs
// (τ=1), and crowdedbin on static 4-regular graphs. A unit runs one
// RunSweep per grid point, so each point's time per round is measured
// without tracing: one sweep over the whole grid would give one figure
// dominated by crowdedbin's tens of thousands of cheap rounds.
type sweepRunner struct {
	e      *env
	points []mobilegossip.Config
	setup  []float64 // seconds per grid set-up
}

func newSweep(e *env) (runner, error) {
	s := &sweepRunner{e: e}
	regen := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	for _, alg := range []mobilegossip.Algorithm{mobilegossip.AlgBlindMatch, mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit} {
		for _, n := range e.size.fig1Ns {
			s.points = append(s.points, mobilegossip.Config{Algorithm: alg, N: n, K: e.size.fig1K, Topology: regen, Tau: 1})
		}
	}
	for _, n := range e.size.fig1CrowdedNs {
		s.points = append(s.points, mobilegossip.Config{Algorithm: mobilegossip.AlgCrowdedBin, N: n, K: e.size.fig1CrowdedK, Topology: regen})
	}
	// Set-up is what every cell does before its first round, timed
	// alone: New for every cell of a unit's grid. Whether a cell's
	// generator falls back to a circulant after 50 pairing attempts swings
	// a grid's set-up time, so a run sets up many grids.
	for u := 0; u < 30; u++ {
		runtime.GC()
		start := time.Now()
		for p := range s.points {
			sc := s.sweepConfig(u, p)
			for t := 0; t < sc.Trials; t++ {
				if _, err := mobilegossip.New(cell(sc, t)); err != nil {
					return nil, err
				}
			}
		}
		s.setup = append(s.setup, since(start))
	}
	return s, nil
}

// sweepConfig is unit u's sweep of point p, under a base seed split from
// the run's seed.
func (s *sweepRunner) sweepConfig(u, p int) mobilegossip.SweepConfig {
	return mobilegossip.SweepConfig{
		Points: s.points[p : p+1], Trials: s.e.size.fig1Trials,
		Seed: derive(derive(s.e.seed, u), p), Workers: s.e.size.workers,
	}
}

// cell is the configuration RunSweep runs for trial t of a one-point sweep.
func cell(sc mobilegossip.SweepConfig, t int) mobilegossip.Config {
	cfg := sc.Points[0]
	cfg.Seed = mobilegossip.SweepSeed(sc.Seed, t)
	cfg.EngineWorkers = 1 // as RunSweep sets it under its pool
	return cfg
}

type sweepExtra struct {
	sweeps [][]mobilegossip.SweepResult // by unit, then point
	walls  [][]float64                  // seconds, by unit, then point
}

func (s *sweepRunner) pass(tr *tracer, deadline time.Time, units int) (passStats, error) {
	var p passStats
	var x sweepExtra
	g := s.e.checks
	for u := 0; more(u, units, deadline); u++ {
		unit := tr.begin("unit", 0)
		var results []mobilegossip.SweepResult
		var walls, perRound []float64
		key, cells := "", 0
		for pi := range s.points {
			sc := s.sweepConfig(u, pi)
			var sr mobilegossip.SweepResult
			var err error
			ms := tr.timed("mobilegossip.RunSweep", unit, func() { sr, err = mobilegossip.RunSweep(sc) })
			if !g.ok(err, "RunSweep") {
				continue
			}
			var rounds float64
			for t, r := range sr.Points[0].Runs {
				checkGossip(g, fmt.Sprintf("sweep %d point %d trial %d", u, pi, t), r, sc.Points[0].N, sc.Points[0].K)
				rounds += float64(r.Rounds)
				key += resultKey(r)
			}
			perRound = append(perRound, ratio(ms*float64(sr.Workers), rounds))
			cells += len(sr.Points[0].Runs)
			results = append(results, sr)
			walls = append(walls, ms/1e3)
		}
		tr.end(unit)
		// One figure per unit, averaged over the grid: a percentile over
		// per-point figures would sit on the boundary between two points.
		p.rounds = append(p.rounds, mean(perRound))
		p.reqs = append(p.reqs, ratio(sum(walls)*1e3*float64(s.e.size.workers), float64(cells)))
		p.runs += cells
		p.sessions += cells
		p.results = append(p.results, key)
		p.units++
		p.unitWall = append(p.unitWall, sum(walls))
		p.busy += sum(walls)
		x.sweeps = append(x.sweeps, results)
		x.walls = append(x.walls, walls)
	}
	p.setup = s.setup
	p.extra = x
	return p, nil
}

// perLayer re-runs the first unit's cells one at a time with the engine
// profiler on: Σ cell time over (workers × Σ sweep wall) is the pool's
// efficiency, and the cells' New share is the per-run set-up fraction.
// Each regenerating point's first cell has its schedule replayed alone
// for graph.regen_ms.
func (s *sweepRunner) perLayer(p passStats, tr *tracer) metrics {
	m := zeroLayers()
	x := p.extra.(sweepExtra)
	g := s.e.checks
	if len(x.sweeps) == 0 || len(x.sweeps[0]) != len(s.points) {
		return m
	}
	var eng engineStats
	var newMs, runMs, builds, regenMs []float64
	fallbacks, workers := 0, 0
	for pi, sr := range x.sweeps[0] {
		sc := s.sweepConfig(0, pi)
		workers = sr.Workers
		for t := 0; t < sc.Trials; t++ {
			cfg := cell(sc, t)
			cfg.Profile = true
			var sim *mobilegossip.Simulation
			var res mobilegossip.Result
			var err error
			newMs = append(newMs, tr.timed("mobilegossip.New", 0, func() { sim, err = mobilegossip.New(cfg) }))
			if !g.ok(err, "replica New") {
				continue
			}
			runMs = append(runMs, tr.timed("Simulation.Run", 0, func() { res, err = sim.Run(context.Background()) }))
			g.ok(err, "replica Run")
			g.expect(res == sr.Points[0].Runs[t], "point %d trial %d: replica differs from the sweep's run", pi, t)
			eng.add(tr, 0, sim)
			if t == 0 {
				rp, err := replay(tr, 0, cfg.Topology, cfg.N, cfg.Tau, cfg.Seed, 1, res.Rounds)
				if g.ok(err, "replica schedule") {
					builds = append(builds, rp.buildMs)
					fallbacks += rp.fallbacks
					if cfg.Tau > 0 {
						regenMs = append(regenMs, rp.stepMs...)
					}
				}
			}
		}
	}
	eng.put(m)
	cellMs := sum(newMs) + sum(runMs)
	m.set("runner.efficiency", ratio(cellMs, float64(workers)*sum(x.walls[0])*1e3), "ratio")
	m.set("runner.setup_frac", ratio(sum(newMs), cellMs), "ratio")
	m.set("graph.build_ms", mean(builds), "ms")
	m.set("graph.regen_ms", mean(regenMs), "ms")
	m.set("graph.fallback_epochs", float64(fallbacks), "count")
	return m
}

func (s *sweepRunner) close() error { return nil }
