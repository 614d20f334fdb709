package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/events"
)

// daemonRunner is gossipd-sessions: a gossipd process driven in a closed
// loop by sizes.clients connections. Each client keeps a window of
// recorded-event waypoint sessions and cycles them through create, partial
// runs, the events download and delete. The daemon's resident cap is half the
// sessions in flight, so round-robin touches revive evicted sessions and
// the run request that follows on the same session finds it resident.
type daemonRunner struct {
	e     *env
	proc  *exec.Cmd
	c     *client.Client
	setup []float64
	// classes are the session seeds; session j runs class j mod len.
	classes []uint64
	refs    []mobilegossip.Result
}

// Sessions advance this many rounds per run request, twice in a row.
const daemonSlice = 4

func (d *daemonRunner) config(class int) mobilegossip.Config {
	return mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: d.e.size.daemonN, K: d.e.size.daemonK, Tau: 1,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint}, Seed: d.classes[class],
	}
}

func (d *daemonRunner) request(class int) client.CreateRequest {
	return client.CreateRequest{
		Algorithm: "sharedbit", N: d.e.size.daemonN, K: d.e.size.daemonK, Tau: 1,
		Topology: client.TopologySpec{Kind: "waypoint"}, Seed: d.classes[class], RecordEvents: true,
	}
}

func newDaemonLoad(e *env) (runner, error) {
	if e.gossipd == "" {
		return nil, errors.New("gossipd-sessions needs -gossipd")
	}
	d := &daemonRunner{e: e}
	for i := 0; i < 32; i++ {
		d.classes = append(d.classes, derive(e.seed, i))
		ref, err := mobilegossip.Run(d.config(i))
		if err != nil {
			return nil, fmt.Errorf("local reference %d: %w", i, err)
		}
		d.refs = append(d.refs, ref)
	}
	// Start the daemon 15 times and keep the last: set-up time is the
	// median of the 15 start-up times, a few milliseconds each.
	for i := 0; i < 15; i++ {
		if i > 0 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := d.start(); err != nil {
			_ = d.stop() // the start failure is the error to report
			return nil, err
		}
		d.setup = append(d.setup, since(start))
	}
	e.children = func() []int {
		if d.proc == nil {
			return nil
		}
		return []int{d.proc.Process.Pid}
	}
	return d, nil
}

// start launches gossipd on a free port and waits until it answers.
func (d *daemonRunner) start() error {
	addrFile := filepath.Join(d.e.scratch, "addr")
	os.Remove(addrFile)
	state := filepath.Join(d.e.scratch, "state")
	if err := os.RemoveAll(state); err != nil {
		return err
	}
	cmd := exec.Command(d.e.gossipd, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-statedir", state,
		"-workers", strconv.Itoa(d.e.size.workers), "-maxlive", strconv.Itoa(max(1, d.e.size.daemonWindow*d.e.size.clients/2)),
		"-slice", "16")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logFile, err := os.Create(filepath.Join(d.e.scratch, "gossipd.log"))
	if err != nil {
		return err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return err
	}
	d.proc = cmd
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(data, []byte("\n")) {
			d.c = client.New(strings.TrimSpace(string(data)))
			break
		}
		if time.Now().After(deadline) {
			return errors.New("gossipd did not write its address within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = d.c.Version(ctx)
	return err
}

// stop sends SIGTERM and waits for the daemon to exit (SIGKILL after 10s).
func (d *daemonRunner) stop() error {
	if d.proc == nil {
		return nil
	}
	cmd := d.proc
	d.proc = nil
	// gossipd's graceful shutdown waits on connections that were dialed
	// but never carried a request until its own 5 s timeout, then exits 1;
	// the client's idle pool can hold one, so close the pool first.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill() // Wait below reports the outcome
		<-done
		return errors.New("gossipd did not stop within 10s of SIGTERM")
	}
}

func (d *daemonRunner) close() error { return d.stop() }

// clientStats is what one client measured over one batch.
type clientStats struct {
	createMs, runMs, roundMs []float64
	coldMs, warmMs           []float64
	eventsMs                 []float64
	eventsCount, eventsBytes []float64
	sessions                 int
	results                  []string
}

type daemonExtra struct {
	clients           []clientStats
	metricsBefore     map[string]float64
	metricsAfter      map[string]float64
	runRequestsTraced int
}

func (d *daemonRunner) pass(tr *tracer, deadline time.Time, units int) (passStats, error) {
	var p passStats
	var x daemonExtra
	g := d.e.checks
	if tr != nil {
		x.metricsBefore = d.scrape(tr)
	}
	p.setup = d.setup
	for u := 0; more(u, units, deadline); u++ {
		unit := tr.begin("unit", 0)
		start := time.Now()
		stats := make([]clientStats, d.e.size.clients)
		var wg sync.WaitGroup
		for c := range stats {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				d.cycle(tr, unit, u, c, &stats[c])
			}(c)
		}
		wg.Wait()
		wall := since(start)
		tr.end(unit)
		key := ""
		for _, st := range stats {
			p.rounds = append(p.rounds, st.roundMs...)
			p.reqs = append(p.reqs, st.runMs...)
			p.runs += len(st.runMs)
			p.sessions += st.sessions
			key += strings.Join(st.results, ";") + "|"
		}
		p.results = append(p.results, key)
		x.clients = append(x.clients, stats...)
		p.units++
		p.unitWall = append(p.unitWall, wall)
		p.busy += wall
	}
	if tr != nil {
		x.metricsAfter = d.scrape(tr)
		for _, st := range x.clients {
			x.runRequestsTraced += len(st.runMs)
		}
	}
	p.extra = x
	g.expect(p.runs > 0, "no run requests completed")
	return p, nil
}

// dsession is one client's view of a daemon session.
type dsession struct {
	id        string
	class     int
	round     int
	evictions int64
	done      bool
	last      client.RunResult
}

// cycle is one client's share of batch u: create a window of sessions,
// run them round-robin in daemonSlice-round requests until all finish,
// then download each one's events, check it, and delete it.
func (d *daemonRunner) cycle(tr *tracer, parent, u, c int, st *clientStats) {
	g := d.e.checks
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	w := d.e.size.daemonWindow
	var live []*dsession
	for j := 0; j < w; j++ {
		class := (u*d.e.size.clients*w + c*w + j) % len(d.classes)
		var info client.SessionInfo
		var err error
		st.createMs = append(st.createMs, tr.timed("client.Create", parent, func() {
			info, err = d.c.Create(ctx, d.request(class))
		}))
		if g.ok(err, "create") {
			live = append(live, &dsession{id: info.ID, class: class})
		}
	}
	for pending := len(live); pending > 0; {
		pending = 0
		for _, s := range live {
			for rep := 0; rep < 2 && !s.done; rep++ {
				var rr client.RunResult
				var err error
				ms := tr.timed("client.Run", parent, func() { rr, err = d.c.Run(ctx, s.id, daemonSlice) })
				if !g.ok(err, "run "+s.id) {
					s.done = true // abandon the session; the failure is counted
					break
				}
				st.runMs = append(st.runMs, ms)
				if adv := rr.Rounds - s.round; adv > 0 {
					st.roundMs = append(st.roundMs, ms/float64(adv))
				}
				if rr.Session.Evictions > s.evictions {
					st.coldMs = append(st.coldMs, ms)
				} else {
					st.warmMs = append(st.warmMs, ms)
				}
				s.round, s.evictions, s.done, s.last = rr.Rounds, rr.Session.Evictions, rr.Session.Done, rr
			}
			if !s.done {
				pending++
			}
		}
	}
	for _, s := range live {
		d.finish(tr, parent, ctx, s, st)
	}
}

// finish checks a finished session against its local reference and its
// recorded event stream, then deletes it.
func (d *daemonRunner) finish(tr *tracer, parent int, ctx context.Context, s *dsession, st *clientStats) {
	g := d.e.checks
	ref := d.refs[s.class]
	rr := s.last
	got := mobilegossip.Result{
		Algorithm: ref.Algorithm, Topology: rr.Topology, Solved: rr.Solved, Rounds: rr.Rounds,
		Connections: rr.Connections, Proposals: rr.Proposals, ControlBits: rr.ControlBits,
		TokensMoved: rr.TokensMoved, EdgesAdded: rr.EdgesAdded, EdgesRemoved: rr.EdgesRemoved,
		FinalPotential: rr.FinalPotential,
	}
	g.expect(rr.Algorithm == ref.Algorithm.String() && got == ref,
		"session %s (seed %d): daemon result %+v differs from local run %+v", s.id, d.classes[s.class], rr, ref)
	checkGossip(g, "session "+s.id, got, d.e.size.daemonN, d.e.size.daemonK)
	st.results = append(st.results, resultKey(got))

	var evs []events.Event
	var n int64
	var err error
	ms := tr.timed("client.Events", parent, func() {
		var body io.ReadCloser
		body, err = d.c.Events(ctx, s.id, client.EventOptions{})
		if err != nil {
			return
		}
		defer body.Close()
		var buf bytes.Buffer
		n, err = buf.ReadFrom(bufio.NewReader(body))
		if err == nil {
			evs, err = events.ReadAll(&buf)
		}
	})
	if g.ok(err, "events "+s.id) {
		st.eventsMs = append(st.eventsMs, ms)
		st.eventsCount = append(st.eventsCount, float64(len(evs)))
		st.eventsBytes = append(st.eventsBytes, float64(n))
		g.expect(len(evs) > 0 && evs[len(evs)-1].Type == events.TypeSessionEnd && int64(len(evs)) == rr.Session.EventsRecorded,
			"session %s: event stream of %d events does not end in session_end or differs from the %d recorded",
			s.id, len(evs), rr.Session.EventsRecorded)
	}
	tr.timed("client.Delete", parent, func() { err = d.c.Delete(ctx, s.id) })
	if g.ok(err, "delete "+s.id) {
		st.sessions++
	}
}

// scrape reads the daemon's counters from /metrics.
func (d *daemonRunner) scrape(tr *tracer) map[string]float64 {
	var text string
	var err error
	tr.timed("client.Metrics", 0, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		text, err = d.c.Metrics(ctx)
	})
	out := map[string]float64{}
	if !d.e.checks.ok(err, "metrics scrape") {
		return out
	}
	for _, line := range strings.Split(text, "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "gossipd_") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}

// perLayer reads the daemon's layers from the traced client calls and
// /metrics deltas, and the checkpoint, engine and topology layers from
// local replicas of the session classes.
func (d *daemonRunner) perLayer(p passStats, tr *tracer) metrics {
	m := zeroLayers()
	x := p.extra.(daemonExtra)
	g := d.e.checks
	var create, cold, warm, evMs, evCount, evBytes []float64
	for _, st := range x.clients {
		create = append(create, st.createMs...)
		cold = append(cold, st.coldMs...)
		warm = append(warm, st.warmMs...)
		evMs = append(evMs, st.eventsMs...)
		evCount = append(evCount, st.eventsCount...)
		evBytes = append(evBytes, st.eventsBytes...)
	}
	reqs := float64(x.runRequestsTraced)
	delta := func(name string) float64 { return ratio(x.metricsAfter[name]-x.metricsBefore[name], reqs) }
	m.set("daemon.create_ms_p50", median(create), "ms")
	m.set("daemon.run_cold_ms_p50", median(cold), "ms")
	m.set("daemon.run_warm_ms_p50", median(warm), "ms")
	m.set("daemon.evictions_per_req", delta("gossipd_evictions_total"), "ratio")
	m.set("daemon.revivals_per_req", delta("gossipd_revivals_total"), "ratio")
	m.set("daemon.slices_per_req", delta("gossipd_slices_total"), "ratio")
	m.set("events.count", mean(evCount), "count")
	m.set("events.bytes", mean(evBytes), "bytes")
	m.set("events.replay_ms", median(evMs), "ms")

	var eng engineStats
	var ck ckptStats
	var builds, stepMs []float64
	var churn float64
	for i, ref := range d.refs {
		cfg := d.config(i)
		cfg.Profile = true
		sim, err := mobilegossip.New(cfg)
		if !g.ok(err, "replica New") {
			continue
		}
		res, err := sim.Run(context.Background())
		g.ok(err, "replica Run")
		g.expect(res == ref, "class %d: profiled replica differs from its reference", i)
		eng.add(tr, 0, sim)

		half, err := mobilegossip.New(d.config(i))
		if !g.ok(err, "replica New") {
			continue
		}
		for half.Round() < ref.Rounds/2 {
			if _, err := half.Step(); !g.ok(err, "replica Step") {
				break
			}
		}
		back, err := ck.roundTrip(tr, 0, half)
		if g.ok(err, "checkpoint round trip") {
			res, err := back.Run(context.Background())
			g.ok(err, "resumed Run")
			g.expect(res == ref, "class %d: resumed replica differs from its reference", i)
		}

		rp, err := replay(tr, 0, cfg.Topology, cfg.N, cfg.Tau, cfg.Seed, 1, ref.Rounds)
		if g.ok(err, "replica schedule") {
			builds = append(builds, rp.buildMs)
			stepMs = append(stepMs, rp.stepMs...)
			churn += rp.churn
		}
	}
	eng.put(m)
	ck.put(m)
	m.set("graph.build_ms", mean(builds), "ms")
	m.set("mobility.step_ms", mean(stepMs), "ms")
	m.set("mobility.edge_churn", ratio(churn, float64(len(stepMs))), "edges/round")
	return m
}
