package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// runTraced executes a SharedBit gossip with tracing on the given number
// of engine shard workers (1 = sequential) and returns the engine result
// plus parsed events. n is sized so rounds carry enough connections for
// the sharded engine's exchange phase to run in parallel.
func runTraced(t *testing.T, workers int) (mtm.Result, []Event, *Recorder) {
	t.Helper()
	const n, k = 256, 16
	st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	proto := core.NewSharedBit(st, prand.NewSharedString(5))
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	res, err := mtm.NewEngine(dyngraph.RotatingRegular(n, 4, 2, 3), Wrap(proto, rec), mtm.Config{
		Seed: 8, Workers: workers,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return res, events, rec
}

func TestRecorderCountsMatchEngineTotals(t *testing.T) {
	res, events, rec := runTraced(t, 1)
	if !res.Completed {
		t.Fatal("gossip unsolved")
	}
	var proposals, connects int64
	for _, e := range events {
		switch e.Kind {
		case "propose":
			proposals++
		case "connect":
			connects++
		default:
			t.Errorf("unknown event kind %q", e.Kind)
		}
	}
	if proposals != res.Proposals {
		t.Errorf("traced %d proposals, engine counted %d", proposals, res.Proposals)
	}
	if connects != res.Connections {
		t.Errorf("traced %d connections, engine counted %d", connects, res.Connections)
	}
	if rec.Events() != int64(len(events)) {
		t.Errorf("Events() = %d, parsed %d", rec.Events(), len(events))
	}
	if rec.Err() != nil {
		t.Errorf("unexpected recorder error: %v", rec.Err())
	}
}

func TestEventsWellFormed(t *testing.T) {
	res, events, _ := runTraced(t, 1)
	for _, e := range events {
		if e.Round < 1 || e.Round > res.Rounds {
			t.Errorf("event round %d outside [1, %d]", e.Round, res.Rounds)
		}
		if e.Node == e.Peer {
			t.Errorf("self-event: %+v", e)
		}
		if e.Kind == "connect" {
			if e.Bits <= 0 {
				t.Errorf("connect with no metered bits: %+v", e)
			}
		}
	}
}

func TestWrappedExecutionIdenticalToBare(t *testing.T) {
	run := func(wrap bool) mtm.Result {
		const n, k = 16, 4
		st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		var proto mtm.Protocol = core.NewSharedBit(st, prand.NewSharedString(5))
		if wrap {
			proto = Wrap(proto, NewRecorder(&bytes.Buffer{}))
		}
		g := graph.RandomRegular(n, 4, prand.New(3))
		res, err := mtm.NewEngine(dyngraph.NewStatic(g), proto, mtm.Config{Seed: 8}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if bare, wrapped := run(false), run(true); bare != wrapped {
		t.Errorf("tracing changed the execution:\n  bare:    %+v\n  wrapped: %+v", bare, wrapped)
	}
}

// TestConcurrentBackendSafeAndEquivalent: the sharded engine records the
// same events as the sequential one; only their order within a round may
// follow goroutine scheduling.
func TestConcurrentBackendSafeAndEquivalent(t *testing.T) {
	seqRes, seqEvents, _ := runTraced(t, 1)
	parRes, parEvents, _ := runTraced(t, 2)
	if seqRes != parRes {
		t.Errorf("backends diverged under tracing: %+v vs %+v", seqRes, parRes)
	}
	perRound := map[int]int{}
	for _, e := range seqEvents {
		if e.Kind == "connect" {
			perRound[e.Round]++
		}
	}
	// 64 is mtm's shardMinConns: below it the exchange phase stays sequential.
	if busiest := slices.Max(slices.Collect(maps.Values(perRound))); busiest < 64 {
		t.Fatalf("busiest round had %d connections; the exchange phase never ran in parallel", busiest)
	}
	for _, evs := range [][]Event{seqEvents, parEvents} {
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.Round != b.Round {
				return a.Round < b.Round
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Node < b.Node
		})
	}
	if !slices.Equal(seqEvents, parEvents) {
		t.Errorf("event streams differ beyond intra-round order (%d vs %d events)",
			len(seqEvents), len(parEvents))
	}
}

// failingWriter fails every write after the first.
type failingWriter struct{ writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestRecorderSurfacesWriteErrors(t *testing.T) {
	const n, k = 12, 3
	st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	proto := core.NewSharedBit(st, prand.NewSharedString(5))
	rec := NewRecorder(&failingWriter{})
	g := graph.RandomRegular(n, 4, prand.New(3))
	if _, err := mtm.NewEngine(dyngraph.NewStatic(g), Wrap(proto, rec), mtm.Config{Seed: 8}).Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Err() == nil {
		t.Fatal("expected a recorder write error")
	}
	if !strings.Contains(rec.Err().Error(), "disk full") {
		t.Errorf("error should wrap the writer failure, got %v", rec.Err())
	}
}
