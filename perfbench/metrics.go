package main

import (
	"math"
	"sort"

	"mobilegossip"
)

// metricDef names one per-layer metric and its unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// perLayerMetrics come from the traced run; every traced run prints all
// of them, 0 for a layer the workload never calls.
var perLayerMetrics = []metricDef{
	{"graph.build_ms", "ms"},
	{"graph.regen_ms", "ms"},
	{"graph.fallback_epochs", "count"},
	{"graph.fallback_builds", "count"},
	{"mobility.step_ms", "ms"},
	{"mobility.edge_churn", "edges/round"},
	{"adversary.step_ms", "ms"},
	{"mtm.step_ms", "ms"},
	{"mtm.churn_ms", "ms"},
	{"mtm.proposal_ms", "ms"},
	{"mtm.exchange_ms", "ms"},
	{"mtm.reduction_ms", "ms"},
	{"mtm.barrier_ms", "ms"},
	{"mtm.imbalance", "ratio"},
	{"mtm.rounds", "count"},
	{"mtm.accept_ratio", "ratio"},
	{"eqtest.transfer_us", "us"},
	{"eqtest.bits_per_conn", "bits"},
	{"eqtest.tokens_per_conn", "count"},
	{"ckpt.encode_ms", "ms"},
	{"ckpt.decode_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"daemon.create_ms_p50", "ms"},
	{"daemon.run_cold_ms_p50", "ms"},
	{"daemon.run_warm_ms_p50", "ms"},
	{"daemon.evictions_per_req", "ratio"},
	{"daemon.revivals_per_req", "ratio"},
	{"daemon.slices_per_req", "ratio"},
	{"events.count", "count"},
	{"events.bytes", "bytes"},
	{"events.replay_ms", "ms"},
	{"runner.efficiency", "ratio"},
	{"runner.setup_frac", "ratio"},
	{"scenario.rebind_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// putEndToEnd writes the end-to-end metrics every workload shares the
// definition of; README.md gives each workload's unit of work.
func putEndToEnd(p passStats) metrics {
	m := metrics{}
	m.set("setup_s", median(p.setup), "s")
	m.set("wall_s", median(p.unitWall), "s")
	m.set("round_ms_p50", quantile(p.rounds, 0.5), "ms")
	m.set("round_ms_p90", quantile(p.rounds, 0.9), "ms")
	m.set("runs_per_s", ratio(float64(p.runs), p.busy), "1/s")
	m.set("sessions_per_s", ratio(float64(p.sessions), p.busy), "1/s")
	m.set("run_req_ms_p50", quantile(p.reqs, 0.5), "ms")
	// p90, not p99: on a shared host the request p99 follows the
	// hypervisor's CPU steal, not the program (gossipd-sessions: 5.3 ms at
	// 0.5% steal, 9.9 ms at 8.6%).
	m.set("run_req_ms_p90", quantile(p.reqs, 0.9), "ms")
	return m
}

// derive splits an independent seed for input i from the run's seed.
func derive(seed uint64, i int) uint64 { return mobilegossip.SweepSeed(seed, i) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
