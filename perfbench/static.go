package main

import (
	"fmt"
	"runtime"
	"time"

	"mobilegossip"
)

// staticRunner is static-expander: sharedbit run to completion on a
// static random 4-regular graph with the shard-parallel engine.
type staticRunner struct {
	e      *env
	inputs []mobilegossip.Config
	setup  []float64 // seconds per New, one per set-up input
	// fallbackBuilds counts input seeds skipped because the generator
	// returned its circulant fallback instead of a random 4-regular graph.
	fallbackBuilds int
}

// staticSetups is how many inputs each run sets up before measuring: the
// generator's pairing attempts, and so New's time, vary widely by seed.
const staticSetups = 9

func newStatic(e *env) (runner, error) {
	s := &staticRunner{e: e}
	for u := 0; u < staticSetups; u++ {
		cfg, err := s.input(u)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if _, err := mobilegossip.New(cfg); err != nil {
			return nil, err
		}
		s.setup = append(s.setup, since(start))
	}
	return s, nil
}

var expander = mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}

// input returns unit u's configuration: the first seed of the unit's
// stream whose graph is a random 4-regular graph. The generator falls
// back to a ring-like circulant on about half of all seeds at this size,
// which would turn the workload into a thousands-of-rounds diameter
// crawl; the skipped seeds are reported as graph.fallback_builds.
func (s *staticRunner) input(u int) (mobilegossip.Config, error) {
	for len(s.inputs) <= u {
		stream := derive(s.e.seed, len(s.inputs))
		for attempt := 0; ; attempt++ {
			if attempt == 64 {
				return mobilegossip.Config{}, fmt.Errorf("no random 4-regular graph in 64 seeds")
			}
			seed := derive(stream, attempt)
			runtime.GC() // a failed attempt leaves a heap of pairing garbage
			dyn, err := expander.Build(s.e.size.staticN, 0, scheduleSeed(seed))
			if err != nil {
				return mobilegossip.Config{}, err
			}
			if !isFallback(dyn.At(1).Name()) {
				s.inputs = append(s.inputs, mobilegossip.Config{
					Algorithm: mobilegossip.AlgSharedBit, N: s.e.size.staticN, K: s.e.size.staticK,
					Topology: expander, Seed: seed, EngineWorkers: s.e.size.workers,
				})
				break
			}
			s.fallbackBuilds++
		}
	}
	return s.inputs[u], nil
}

type staticExtra struct {
	eng  engineStats
	ckpt ckptStats
}

func (s *staticRunner) pass(tr *tracer, deadline time.Time, units int) (passStats, error) {
	var p passStats
	var x staticExtra
	g := s.e.checks
	for u := 0; more(u, units, deadline); u++ {
		cfg, err := s.input(u)
		if err != nil {
			return p, err
		}
		cfg.Profile = tr != nil
		unit := tr.begin("unit", 0)
		start := time.Now()
		var sim *mobilegossip.Simulation
		tr.timed("mobilegossip.New", unit, func() { sim, err = mobilegossip.New(cfg) })
		if !g.ok(err, "New") {
			tr.end(unit)
			continue
		}
		for !sim.Done() {
			ms, err := stepTimed(tr, unit, sim)
			if !g.ok(err, "Step") {
				break
			}
			p.rounds = append(p.rounds, ms)
		}
		wall := since(start)
		tr.end(unit)
		res := sim.Result()
		checkGossip(g, fmt.Sprintf("unit %d", u), res, cfg.N, cfg.K)
		g.expect(!isFallback(res.Topology), "unit %d: ran on %s, not a random 4-regular graph", u, res.Topology)
		p.results = append(p.results, resultKey(res))
		p.units++
		p.runs++
		p.sessions++
		p.unitWall = append(p.unitWall, wall)
		p.busy += wall
		if tr != nil {
			x.eng.add(tr, unit, sim)
			_, err := x.ckpt.roundTrip(tr, unit, sim)
			g.ok(err, "checkpoint round trip")
		}
	}
	p.reqs = p.rounds // a run request to the library is one Step
	p.setup = s.setup
	p.extra = x
	return p, nil
}

func (s *staticRunner) perLayer(p passStats, tr *tracer) metrics {
	m := zeroLayers()
	x := p.extra.(staticExtra)
	x.eng.put(m)
	x.ckpt.put(m)
	var builds []float64
	for u := 0; u < p.units; u++ {
		cfg := s.inputs[u]
		rp, err := replay(tr, 0, cfg.Topology, cfg.N, 0, cfg.Seed, 1, 1)
		if s.e.checks.ok(err, "replica build") {
			builds = append(builds, rp.buildMs)
		}
	}
	m.set("graph.build_ms", mean(builds), "ms")
	m.set("graph.fallback_builds", float64(s.fallbackBuilds)/float64(len(s.inputs)), "count")
	return m
}

func (s *staticRunner) close() error { return nil }
