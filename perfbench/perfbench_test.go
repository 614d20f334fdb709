package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobilegossip"
)

// tinySizes keep every workload's unit well under a second.
func tinySizes() sizes {
	return sizes{
		staticN: 2000, staticK: 4,
		churnN: 2000, churnK: 8,
		daemonN: 60, daemonK: 4, daemonWindow: 2,
		fig1Ns: []int{32, 64}, fig1CrowdedNs: []int{48},
		fig1K: 4, fig1CrowdedK: 4, fig1Trials: 1,
		workers: 2, clients: 1,
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// gossipdPath is the gossipd binary TestMain builds for the tests.
var gossipdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gossipdPath = filepath.Join(dir, "gossipd")
	if out, err := exec.Command("go", "build", "-o", gossipdPath, "mobilegossip/cmd/gossipd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building gossipd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyEnv(t *testing.T, log io.Writer) *env {
	return &env{seed: 7, gossipd: gossipdPath, scratch: t.TempDir(), size: tinySizes(), checks: &gate{log: log}}
}

func findWorkload(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestWorkloadsMatchBenchmarkFile pins the workload list and each one's
// reason to BENCHMARK.json, and the per-layer units to the declared ones.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny size, untraced
// and traced, and checks that each run passes its gate and prints every
// metric BENCHMARK.json names, with its unit, as one JSON line.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	b := loadBenchFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var log bytes.Buffer
				res, _, err := measure(&w, tinyEnv(t, &log), 0.2, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var printed struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &printed); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(printed.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(printed.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := printed.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s: unit %q, want %q", name, got.Unit, unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			})
		}
	}
}

// TestSameSeedSameInputs checks that the generated inputs depend on the
// seed alone: scenario YAML, sweep grid seeds and session seeds.
func TestSameSeedSameInputs(t *testing.T) {
	if a, b := churnYAML(derive(3, 0), 100, 4), churnYAML(derive(3, 0), 100, 4); !bytes.Equal(a, b) {
		t.Fatal("churn-storm YAML differs for one seed")
	}
	if bytes.Equal(churnYAML(derive(3, 0), 100, 4), churnYAML(derive(4, 0), 100, 4)) {
		t.Fatal("churn-storm YAML ignores the seed")
	}
	e := tinyEnv(t, io.Discard)
	s1, _ := newSweep(e)
	s2, _ := newSweep(e)
	if a, b := s1.(*sweepRunner).sweepConfig(2, 1), s2.(*sweepRunner).sweepConfig(2, 1); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("fig1-sweep grid differs for one seed")
	}
	st1, _ := newStatic(e)
	st2, _ := newStatic(e)
	if a, b := st1.(*staticRunner).inputs, st2.(*staticRunner).inputs; fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("static-expander inputs differ for one seed")
	}
	d := &daemonRunner{e: e}
	for i := 0; i < 3; i++ {
		d.classes = append(d.classes, derive(e.seed, i))
	}
	if a, b := fmt.Sprint(d.request(2)), fmt.Sprint(d.request(2)); a != b {
		t.Fatal("gossipd-sessions create request differs for one seed")
	}
}

// tampered wraps a runner and corrupts what its traced pass reports.
type tampered struct {
	runner
	corrupt func(*passStats)
}

func (w tampered) pass(tr *tracer, deadline time.Time, units int) (passStats, error) {
	p, err := w.runner.pass(tr, deadline, units)
	if tr != nil {
		w.corrupt(&p)
	}
	return p, err
}

// TestTamperedResultsTripTheGate corrupts a result at each layer the gate
// checks and expects the run to report correct=false.
func TestTamperedResultsTripTheGate(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		traced   bool
		tamper   func(t *testing.T, r runner) runner
	}{
		{"traced result differs", "static-expander", true, func(t *testing.T, r runner) runner {
			return tampered{r, func(p *passStats) { p.results[0] += "x" }}
		}},
		{"daemon result differs from local run", "gossipd-sessions", false, func(t *testing.T, r runner) runner {
			d := r.(*daemonRunner)
			for i := range d.refs {
				d.refs[i].Connections++
			}
			return d
		}},
		{"scenario expect block violated", "churn-storm", false, func(t *testing.T, r runner) runner {
			c := r.(*churnRunner)
			in := &c.inputs[0]
			moved := fmt.Sprint(c.e.size.churnK * (c.e.size.churnN - 1))
			wrong := fmt.Sprint(c.e.size.churnK*(c.e.size.churnN-1) + 1)
			in.yaml = bytes.ReplaceAll(in.yaml, []byte("tokens_moved: "+moved), []byte("tokens_moved: "+wrong))
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := findWorkload(t, tc.workload)
			inner := w.new
			w.new = func(e *env) (runner, error) {
				r, err := inner(e)
				if err != nil {
					return nil, err
				}
				return tc.tamper(t, r), nil
			}
			var log bytes.Buffer
			res, _, err := measure(&w, tinyEnv(t, &log), 0.2, tc.traced)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("tampered run passed its gate: %+v", res)
			}
			if !strings.Contains(log.String(), "check failed") {
				t.Fatalf("no failed check logged:\n%s", log.String())
			}
		})
	}
}

// TestCheckGossip pins the per-run invariants the gate applies.
func TestCheckGossip(t *testing.T) {
	cfg := mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 200, K: 4, Topology: expander, Seed: 5}
	clean, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{log: io.Discard}
	checkGossip(g, "clean", clean, cfg.N, cfg.K)
	if g.failed != 0 {
		t.Fatalf("clean run failed the gate: %+v", clean)
	}
	for name, corrupt := range map[string]func(r *mobilegossip.Result){
		"unsolved":          func(r *mobilegossip.Result) { r.Solved = false },
		"potential left":    func(r *mobilegossip.Result) { r.FinalPotential = 1 },
		"token count drift": func(r *mobilegossip.Result) { r.TokensMoved-- },
	} {
		r := clean
		corrupt(&r)
		g := &gate{log: io.Discard}
		checkGossip(g, name, r, cfg.N, cfg.K)
		if g.failed == 0 {
			t.Errorf("%s: gate passed", name)
		}
	}
}
