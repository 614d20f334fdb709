package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"mobilegossip"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/prand"
)

// scheduleSeed is the seed New and Simulation.Rebind hand to
// Topology.Build for a session seeded with cfgSeed; replicas use it so
// they step exactly the schedule the session stepped.
func scheduleSeed(cfgSeed uint64) uint64 { return prand.Mix64(cfgSeed ^ 0x6c62272e07bb0142) }

// isFallback reports a graph the random-regular generator replaced by a
// circulant.
func isFallback(name string) bool { return strings.Contains(name, "circulant") }

// engineStats sums the engine's Config.Profile sidecar and meters over
// sessions profiled from their first round.
type engineStats struct {
	runs                         int
	rounds, roundNs, barrierNs   float64
	phaseNs                      [4]float64
	imbalanceSum, imbalanceCount float64
	conns, proposals, bits, toks float64
}

func (s *engineStats) add(tr *tracer, parent int, sim *mobilegossip.Simulation) {
	id := tr.begin("Simulation.Profiler", parent)
	p := sim.Profiler()
	if p == nil {
		tr.end(id)
		return
	}
	s.runs++
	s.rounds += float64(p.Rounds())
	s.roundNs += float64(p.RoundLatency().Sum())
	for i, ph := range mobilegossip.ProfilePhases() {
		s.phaseNs[i] += float64(p.PhaseLatency(ph).Sum())
	}
	s.barrierNs += float64(p.BarrierWait().Sum())
	s.imbalanceSum += float64(p.Imbalance().Sum())
	s.imbalanceCount += float64(p.Imbalance().Count())
	tr.end(id)
	res := sim.Result()
	s.conns += float64(res.Connections)
	s.proposals += float64(res.Proposals)
	s.bits += float64(res.ControlBits)
	s.toks += float64(res.TokensMoved)
}

// put writes the mtm and eqtest metrics: per-round phase times, the
// exchange time per connection (Transfer(ε) runs once per connection),
// and the per-connection meters.
func (s *engineStats) put(m metrics) {
	perRound := func(ns float64) float64 { return ratio(ns, s.rounds) / 1e6 }
	m.set("mtm.step_ms", perRound(s.roundNs), "ms")
	m.set("mtm.churn_ms", perRound(s.phaseNs[0]), "ms")
	m.set("mtm.proposal_ms", perRound(s.phaseNs[1]), "ms")
	m.set("mtm.exchange_ms", perRound(s.phaseNs[2]), "ms")
	m.set("mtm.reduction_ms", perRound(s.phaseNs[3]), "ms")
	m.set("mtm.barrier_ms", perRound(s.barrierNs), "ms")
	m.set("mtm.imbalance", ratio(s.imbalanceSum, s.imbalanceCount)/1000, "ratio")
	m.set("mtm.rounds", ratio(s.rounds, float64(s.runs)), "count")
	m.set("mtm.accept_ratio", ratio(s.conns, s.proposals), "ratio")
	m.set("eqtest.transfer_us", ratio(s.phaseNs[2], s.conns)/1e3, "us")
	m.set("eqtest.bits_per_conn", ratio(s.bits, s.conns), "bits")
	m.set("eqtest.tokens_per_conn", ratio(s.toks, s.conns), "count")
}

// replica is a topology schedule built by Topology.Build and stepped
// alone, without an engine, over a window of rounds.
type replica struct {
	buildMs   float64
	stepMs    []float64 // per round of the window
	churn     float64   // edges added + removed over the window
	epochs    int       // epoch boundaries in the window (a static graph is one)
	fallbacks int       // of those, epochs whose graph is a circulant
}

// replay builds topo as a session seeded with cfgSeed would and queries
// rounds from..to (1-based, inclusive) the way the engine does.
func replay(tr *tracer, parent int, topo mobilegossip.Topology, n, tau int, cfgSeed uint64, from, to int) (replica, error) {
	var rp replica
	var dyn dyngraph.Dynamic
	var err error
	rp.buildMs = tr.timed("Topology.Build", parent, func() {
		dyn, err = topo.Build(n, tau, scheduleSeed(cfgSeed))
	})
	if err != nil {
		return rp, err
	}
	delta, hasDelta := dyn.(dyngraph.DeltaDynamic)
	for r := from; r <= to; r++ {
		var name string
		if hasDelta {
			rp.stepMs = append(rp.stepMs, tr.timed("Schedule.DeltaFor", parent, func() {
				d := delta.DeltaFor(r)
				rp.churn += float64(len(d.Added) + len(d.Removed))
			}))
			name = dyn.At(r).Name()
		} else {
			rp.stepMs = append(rp.stepMs, tr.timed("Schedule.At", parent, func() {
				name = dyn.At(r).Name()
			}))
		}
		if tau > 0 && (r-1)%tau == 0 || tau <= 0 && r == from {
			rp.epochs++
			if isFallback(name) {
				rp.fallbacks++
			}
		}
	}
	return rp, nil
}

// ckptStats times a checkpoint round trip of live sessions.
type ckptStats struct {
	encodeMs, decodeMs, bytes []float64
}

// roundTrip checkpoints sim, resumes the bytes, and reports whether the
// resumed session carries the same result and the same checkpoint.
func (c *ckptStats) roundTrip(tr *tracer, parent int, sim *mobilegossip.Simulation) (*mobilegossip.Simulation, error) {
	var buf bytes.Buffer
	var err error
	c.encodeMs = append(c.encodeMs, tr.timed("Simulation.Checkpoint", parent, func() { err = sim.Checkpoint(&buf) }))
	if err != nil {
		return nil, err
	}
	data := buf.Bytes()
	c.bytes = append(c.bytes, float64(len(data)))
	var back *mobilegossip.Simulation
	c.decodeMs = append(c.decodeMs, tr.timed("mobilegossip.Resume", parent, func() {
		back, err = mobilegossip.Resume(bytes.NewReader(data))
	}))
	if err != nil {
		return nil, err
	}
	var again bytes.Buffer
	if err := back.Checkpoint(&again); err != nil {
		return nil, err
	}
	if back.Result() != sim.Result() || !bytes.Equal(again.Bytes(), data) {
		return nil, fmt.Errorf("resumed session differs from the checkpointed one at round %d", sim.Round())
	}
	return back, nil
}

func (c *ckptStats) put(m metrics) {
	m.set("ckpt.encode_ms", mean(c.encodeMs), "ms")
	m.set("ckpt.decode_ms", mean(c.decodeMs), "ms")
	m.set("ckpt.bytes", mean(c.bytes), "bytes")
}

// stepTimed advances sim one round inside a span and returns its ms.
func stepTimed(tr *tracer, parent int, sim *mobilegossip.Simulation) (float64, error) {
	var err error
	ms := tr.timed("Simulation.Step", parent, func() { _, err = sim.Step() })
	return ms, err
}

// resultKey is a canonical string of a Result, for comparing passes.
func resultKey(r mobilegossip.Result) string { return fmt.Sprintf("%+v", r) }

// checkGossip applies the checks every full-gossip run must pass: solved,
// φ = 0, and k(n−1) tokens moved — exactly, since each transfer hands a
// node a token it lacks, except under crowdedbin, whose bins may carry
// tokens the receiver already holds, so there it is a lower bound.
func checkGossip(g *gate, what string, r mobilegossip.Result, n, k int) {
	g.expect(r.Solved && r.FinalPotential == 0, "%s: not solved (φ=%d after %d rounds)", what, r.FinalPotential, r.Rounds)
	want := int64(k) * int64(n-1)
	if r.Algorithm == mobilegossip.AlgCrowdedBin {
		g.expect(r.TokensMoved >= want, "%s: %d tokens moved, want at least k(n-1) = %d", what, r.TokensMoved, want)
		return
	}
	g.expect(r.TokensMoved == want, "%s: %d tokens moved, want k(n-1) = %d", what, r.TokensMoved, want)
}

// since is the elapsed time in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// zeroLayers sets every per-layer metric to 0 so that each workload
// reports the full set; layers the workload never calls stay at 0.
func zeroLayers() metrics {
	m := metrics{}
	for _, l := range perLayerMetrics {
		m.set(l.name, 0, l.unit)
	}
	return m
}
