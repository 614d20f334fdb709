package main

import (
	"fmt"
	"runtime"
	"time"

	"mobilegossip"
	"mobilegossip/internal/outcome"
	"mobilegossip/internal/scenario"
)

// churnRunner is churn-storm: a four-phase scenario — waypoint roam, the
// same crowd under a blackout adversary, regenerated 8-regular graphs,
// and a group heal to completion — generated from the seed.
type churnRunner struct {
	e      *env
	inputs []churnInput
	setup  []float64 // seconds per scenario.Parse + New, one per set-up input
}

type churnInput struct {
	yaml []byte
	// phases holds each phase's topology and τ as the session runs them.
	phases []phaseTopo
}

type phaseTopo struct {
	topo mobilegossip.Topology
	tau  int
}

func newChurn(e *env) (runner, error) {
	c := &churnRunner{e: e}
	for u := 0; u < 9; u++ {
		in, err := c.input(u)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		spec, err := scenario.Parse(in.yaml)
		if err != nil {
			return nil, err
		}
		cfg, err := spec.Config(spec.N, spec.K)
		if err != nil {
			return nil, err
		}
		cfg.EngineWorkers = e.size.workers
		if _, err := mobilegossip.New(cfg); err != nil {
			return nil, err
		}
		c.setup = append(c.setup, since(start))
	}
	return c, nil
}

// churnYAML writes unit u's scenario. Only the scenario seed varies: the
// round-time distribution has one mode per phase, so varying phase
// lengths or motion knobs by seed would move its median between modes.
// The fixed phases are short enough that the heal phase always runs.
func churnYAML(seed uint64, n, k int) []byte {
	const roam, blackout, regen = 10, 10, 12
	moved := int64(k) * int64(n-1)
	return []byte(fmt.Sprintf(`version: 1
name: churn-storm
description: roam, blackout, regenerated 8-regular graphs, and a group heal
seed: %d
algorithm: sharedbit
n: %d
k: %d
tau: 1
max_rounds: 4000
topology:
  kind: waypoint
  speed: 0.015
  pause: 2
phases:
  - name: roam
    rounds: %d
  - name: blackout
    rounds: %d
    topology:
      kind: waypoint
      speed: 0.015
      pause: 2
      adversary: blackout
      adv_parts: 4
      adv_period: 5
  - name: regen
    rounds: %d
    topology:
      kind: regular
      degree: 8
  - name: heal
    rounds: 0
    topology:
      kind: group
      groups: 4
      attract: 0.6
      speed: 0.015
expect:
  solved: true
  solved_by: 4000
  min_rounds: %d
  max_final_potential: 0
  min_tokens_moved: %d
  max_tokens_moved: %d
`, seed%1_000_000_007, n, k, roam, blackout, regen, roam+blackout+regen+1, moved, moved))
}

func (c *churnRunner) input(u int) (churnInput, error) {
	for len(c.inputs) <= u {
		data := churnYAML(derive(c.e.seed, len(c.inputs)), c.e.size.churnN, c.e.size.churnK)
		spec, err := scenario.Parse(data)
		if err != nil {
			return churnInput{}, err
		}
		in := churnInput{yaml: data}
		tau := spec.Tau
		for i, ph := range spec.Phases {
			view := *spec
			if i > 0 && ph.Topology != nil {
				view.Topology = *ph.Topology
			}
			if ph.Tau != nil {
				tau = *ph.Tau
			}
			cfg, err := view.Config(spec.N, spec.K)
			if err != nil {
				return churnInput{}, err
			}
			if i > 0 && ph.Topology == nil {
				cfg.Topology = in.phases[i-1].topo
			}
			in.phases = append(in.phases, phaseTopo{cfg.Topology, tau})
		}
		c.inputs = append(c.inputs, in)
	}
	return c.inputs[u], nil
}

type churnExtra struct {
	eng      engineStats
	ckpt     ckptStats
	rebindMs []float64
	// starts[u] are unit u's phase start rounds, plus its final round.
	starts [][]int
}

func (c *churnRunner) pass(tr *tracer, deadline time.Time, units int) (passStats, error) {
	var p passStats
	var x churnExtra
	g := c.e.checks
	for u := 0; more(u, units, deadline); u++ {
		in, err := c.input(u)
		if err != nil {
			return p, err
		}
		unit := tr.begin("unit", 0)
		start := time.Now()
		var spec *scenario.Spec
		var sim *mobilegossip.Simulation
		tr.timed("scenario.Parse", unit, func() { spec, err = scenario.Parse(in.yaml) })
		if !g.ok(err, "scenario.Parse") {
			tr.end(unit)
			continue
		}
		cfg, err := spec.Config(spec.N, spec.K)
		if !g.ok(err, "scenario config") {
			tr.end(unit)
			continue
		}
		cfg.EngineWorkers = c.e.size.workers
		cfg.Profile = tr != nil
		tr.timed("mobilegossip.New", unit, func() { sim, err = mobilegossip.New(cfg) })
		if !g.ok(err, "New") {
			tr.end(unit)
			continue
		}
		starts := []int{0}
		end := 0
		for i, ph := range spec.Phases {
			end += ph.Rounds
			if i > 0 {
				starts = append(starts, sim.Round())
				next := in.phases[i]
				x.rebindMs = append(x.rebindMs, tr.timed("Simulation.Rebind", unit, func() {
					err = sim.Rebind(next.topo, next.tau)
				}))
				g.ok(err, "Rebind to phase "+ph.Name)
			}
			for !sim.Done() && (ph.Rounds == 0 || sim.Round() < end) {
				ms, err := stepTimed(tr, unit, sim)
				if !g.ok(err, "Step") {
					break
				}
				p.rounds = append(p.rounds, ms)
			}
		}
		wall := since(start)
		tr.end(unit)
		res := sim.Result()
		starts = append(starts, res.Rounds)
		x.starts = append(x.starts, starts)
		what := fmt.Sprintf("unit %d", u)
		checkGossip(g, what, res, cfg.N, cfg.K)
		g.expect(len(starts) == len(spec.Phases)+1 && res.Rounds > starts[len(starts)-2],
			"%s: finished at round %d before its last phase", what, res.Rounds)
		vs := outcome.Check(*spec.Expect, outcome.Run{
			N: cfg.N, K: cfg.K, Solved: res.Solved, Rounds: res.Rounds,
			FinalPotential: res.FinalPotential, TokensMoved: res.TokensMoved,
			EdgesAdded: res.EdgesAdded, EdgesRemoved: res.EdgesRemoved,
		})
		g.expect(len(vs) == 0, "%s: %s", what, outcome.FormatFailure(spec.Name, spec.Seed, "", vs))
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
	p.reqs = p.rounds
	p.setup = c.setup
	p.extra = x
	return p, nil
}

// perLayer replays each phase's schedule alone over the rounds the
// session spent in it: mobility phases give mobility.*, the blackout
// phase minus its adversary-free twin gives adversary.step_ms, and the
// regenerating phase gives graph.regen_ms and graph.fallback_epochs.
func (c *churnRunner) perLayer(p passStats, tr *tracer) metrics {
	m := zeroLayers()
	x := p.extra.(churnExtra)
	x.eng.put(m)
	x.ckpt.put(m)
	g := c.e.checks
	var builds, regenMs []float64
	var mobMs, mobChurn, mobRounds, advMs, advRounds float64
	fallbacks := 0
	for u, starts := range x.starts {
		in := c.inputs[u]
		spec, err := scenario.Parse(in.yaml)
		if !g.ok(err, "scenario.Parse") {
			continue
		}
		n := spec.N
		for i, ph := range in.phases {
			from, to := starts[i]+1, starts[i+1]
			if from > to {
				continue
			}
			rp, err := replay(tr, 0, ph.topo, n, ph.tau, spec.Seed, from, to)
			if !g.ok(err, "replica "+spec.Phases[i].Name) {
				continue
			}
			if i == 0 {
				builds = append(builds, rp.buildMs)
			}
			switch {
			case ph.topo.Adversary != mobilegossip.AdvNone:
				base := ph.topo
				base.Adversary = mobilegossip.AdvNone
				bp, err := replay(tr, 0, base, n, ph.tau, spec.Seed, from, to)
				if !g.ok(err, "replica without adversary") {
					continue
				}
				advMs += sum(rp.stepMs) - sum(bp.stepMs)
				advRounds += float64(len(rp.stepMs))
				mobMs += sum(bp.stepMs)
				mobChurn += bp.churn
				mobRounds += float64(len(bp.stepMs))
			case ph.topo.Kind == mobilegossip.RandomRegular:
				regenMs = append(regenMs, rp.stepMs...)
				fallbacks += rp.fallbacks
			default:
				mobMs += sum(rp.stepMs)
				mobChurn += rp.churn
				mobRounds += float64(len(rp.stepMs))
			}
		}
	}
	units := float64(len(x.starts))
	m.set("graph.build_ms", mean(builds), "ms")
	m.set("graph.regen_ms", mean(regenMs), "ms")
	m.set("graph.fallback_epochs", ratio(float64(fallbacks), units), "count")
	m.set("mobility.step_ms", ratio(mobMs, mobRounds), "ms")
	m.set("mobility.edge_churn", ratio(mobChurn, mobRounds), "edges/round")
	m.set("adversary.step_ms", ratio(advMs, advRounds), "ms")
	m.set("scenario.rebind_ms", mean(x.rebindMs), "ms")
	return m
}

func (c *churnRunner) close() error { return nil }
