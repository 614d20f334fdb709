// Command perfbench is the repository benchmark: it runs one named
// workload against this checkout's mobilegossip, checks every output it
// produces, and prints the workload's metrics as one JSON line.
//
//	bash perfbench/run.sh --workload static-expander --seed 1 --seconds 20 --trace 0
//
// run.sh builds this program and cmd/gossipd from source first. With
// --trace 0 the JSON line holds the end-to-end metrics of an untraced
// run; with --trace 1 the program makes an untraced pass and then a
// traced pass over the same inputs, checks that both give equal
// results, and prints the per-layer metrics plus the tracing overhead.
// README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is one named set of inputs, with the one-line reason it was
// chosen, as BENCHMARK.json records them.
type workload struct {
	name string
	why  string
	new  func(e *env) (runner, error)
}

// runner executes one workload instance inside one process.
type runner interface {
	// pass runs units until deadline, or exactly units when units > 0.
	pass(tr *tracer, deadline time.Time, units int) (passStats, error)
	// perLayer turns a traced pass (and the replicas it runs) into the
	// per-layer metrics.
	perLayer(p passStats, tr *tracer) metrics
	// close stops everything the runner started and waits for it.
	close() error
}

// passStats is what every pass reports; workloads keep their own extras
// in the fields they need.
type passStats struct {
	units    int
	unitWall []float64 // seconds per unit
	setup    []float64 // seconds per set-up
	rounds   []float64 // ms per simulated round
	reqs     []float64 // ms per run request
	runs     int       // simulation runs completed
	sessions int       // sessions completed
	busy     float64   // seconds measured
	results  []string  // canonical per-unit outcomes, compared across passes
	extra    any       // workload-specific data for perLayer
}

// env carries what every workload may use.
type env struct {
	seed     uint64
	gossipd  string // path of the gossipd binary (gossipd-sessions)
	scratch  string // writable directory inside the checkout
	size     sizes
	checks   *gate
	children func() []int // pids of started processes
	// stealFrac is the host CPU share stolen during the measured passes.
	stealFrac float64
}

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	staticN, staticK      int
	churnN, churnK        int
	daemonN, daemonK      int
	daemonWindow          int
	fig1Ns, fig1CrowdedNs []int
	fig1K, fig1CrowdedK   int
	fig1Trials            int
	// workers is the engine, sweep-pool and gossipd worker count.
	workers int
	// clients is the gossipd client connection count. It leaves one CPU
	// to the daemon: with as many closed-loop clients as CPUs the daemon
	// runs saturated, and its tail latency then measures the spare
	// capacity of the host rather than the daemon (on 2 vCPUs, a
	// competing 1-CPU spinner raised p99 by 64% with two clients and by
	// 11% with one).
	clients int
}

func fullSizes() sizes {
	return sizes{
		staticN: 20000, staticK: 24,
		churnN: 10000, churnK: 12,
		daemonN: 300, daemonK: 8, daemonWindow: 6,
		fig1Ns: []int{128, 256, 512}, fig1CrowdedNs: []int{48, 64},
		fig1K: 8, fig1CrowdedK: 4, fig1Trials: 4,
		workers: min(2, runtime.NumCPU()),
		clients: max(1, min(2, runtime.NumCPU()-1)),
	}
}

var workloads = []workload{
	{"static-expander", "Transfer(eps) in the mtm exchange phase does nearly all the work; topology layers idle after set-up", newStatic},
	{"churn-storm", "mobility, adversary, graph regeneration and Simulation.Rebind do most of the work; the engine does little", newChurn},
	{"gossipd-sessions", "daemon, HTTP serving, checkpoint eviction and revival, and event recording dominate", newDaemonLoad},
	{"fig1-sweep", "the paper's Figure 1 reproduction path: runner pool, per-run set-up, and the sequential 0-alloc engine", newSweep},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measurement time")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		gossipd = fs.String("gossipd", "", "gossipd binary (gossipd-sessions)")
		scratch = fs.String("scratch", ".bench_build/run", "directory for daemon state and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	fp := fingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, gossipd: *gossipd, scratch: dir, size: fullSizes(), checks: &gate{log: stderr}}
	res, spans, err := measure(w, e, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if spans != nil {
		path := filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := spans.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(spans.spans), path)
	}
	// A share of the host's CPU time stolen by other tenants slows every
	// timing in the run; this line says how disturbed the run was.
	fmt.Fprintf(stdout, "host {\"steal_frac\":%.4f}\n", e.stealFrac)
	out, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// measure runs one workload: an untraced pass for --trace 0, an untraced
// and a traced pass over the same inputs for --trace 1.
func measure(w *workload, e *env, seconds float64, traced bool) (result, *tracer, error) {
	r, err := w.new(e)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var m metrics
	var tr *tracer
	steal0, total0 := hostTicks()
	runErr := func() error {
		start := time.Now()
		if !traced {
			rss := startRSS(e.pids)
			p, err := r.pass(nil, start.Add(secs(seconds)), 0)
			samples := rss.finish()
			if err != nil {
				return err
			}
			m = putEndToEnd(p)
			m.set("rss_mb", median(samples), "MB")
			return nil
		}
		plain, err := r.pass(nil, start.Add(secs(seconds/2)), 0)
		if err != nil {
			return err
		}
		tr = newTracer()
		withSpans, err := r.pass(tr, time.Time{}, plain.units)
		if err != nil {
			return err
		}
		for i := range plain.results {
			e.checks.expect(i < len(withSpans.results) && plain.results[i] == withSpans.results[i],
				"unit %d: traced result differs from untraced result", i)
		}
		m = r.perLayer(withSpans, tr)
		m.set("trace.overhead_frac", sum(withSpans.unitWall)/sum(plain.unitWall)-1, "ratio")
		return nil
	}()
	steal1, total1 := hostTicks()
	e.stealFrac = ratio(steal1-steal0, total1-total0)
	e.checks.ok(r.close(), "stopping the workload")
	if runErr != nil {
		return result{}, nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	return e.checks.result(m), tr, nil
}

// more reports whether a pass starts unit u: exactly units of them when
// replaying an earlier pass, otherwise until the deadline (at least one).
// Before a unit starts it collects the garbage of the previous one, so
// no unit pays for another's.
func more(u, units int, deadline time.Time) bool {
	ok := u < units || units <= 0 && (u == 0 || time.Now().Before(deadline))
	if ok {
		runtime.GC()
	}
	return ok
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// gate counts the operations a run attempts and the checks they fail.
// A failed check is logged and counted; it never stops the run and is
// never skipped.
type gate struct {
	log       io.Writer
	mu        sync.Mutex
	attempted int64
	failed    int64
}

func (g *gate) expect(ok bool, format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
		fmt.Fprintf(g.log, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// ok counts an attempted operation and whether it returned an error.
func (g *gate) ok(err error, what string) bool {
	return g.expect(err == nil, "%s: %v", what, err)
}

func (g *gate) result(m metrics) result {
	return result{Correct: g.failed == 0 && g.attempted > 0, Attempted: max(g.attempted, 1), Failed: g.failed, Metrics: m}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// pids lists this process and the processes it started.
func (e *env) pids() []int {
	pids := []int{os.Getpid()}
	if e.children != nil {
		pids = append(pids, e.children()...)
	}
	return pids
}
