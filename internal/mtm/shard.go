package mtm

// Shard-parallel round backend: one execution spread across cores with
// results byte-identical to the sequential engine.
//
// The node range [0, n) is partitioned each round into Workers contiguous
// shards whose boundaries balance estimated round cost (degree + fixed
// per-node work; graph.BalancedCutsInto). Every phase then runs
// shard-parallel over per-shard scratch, with a full barrier between
// phases so each phase reads a complete snapshot of the previous one:
//
//	tag      — u-shards write tags[lo:hi]; lowest-u tag-width violation wins
//	decide   — u-shards read the full tag array, write acts[lo:hi],
//	           drawing only from the rngs of their own nodes
//	deliver  — u-shards validate proposals into targets[lo:hi];
//	           then v-shards count arrivals into their own inCnt range and
//	           a tiny sequential pass turns per-shard totals into inbox
//	           base offsets (the deterministic reduction)
//	accept   — v-shards fill their inbox region in ascending proposer
//	           order and draw each listener's uniform choice from the
//	           listener's own stream; per-shard pair lists concatenate in
//	           shard order, which is ascending responder order — exactly
//	           the sequential engine's pair order
//	exchange — accepted connections are vertex-disjoint (a matching), so
//	           contiguous chunks of the pair list are safe to run in
//	           parallel under the Protocol locality contract
//
// Determinism therefore needs no atomics and no locks: every array cell is
// written by exactly one shard, every RNG stream is advanced by exactly the
// same calls in the same order as the sequential path, and the only
// cross-shard reductions (proposal totals, inbox bases, pair concatenation)
// run sequentially in shard order. See DESIGN.md §11.

import (
	"fmt"
	"sync"
	"time"

	"mobilegossip/internal/graph"
)

// shardNodeWeight is the fixed per-node phase cost relative to one adjacency
// entry used when balancing shard boundaries: every node is tagged, decided
// and delivered once regardless of degree, so pure vertex-count balance
// would overload shards holding the high-degree range.
const shardNodeWeight = 8

// shardMinConns is the connection count below which the exchange phase runs
// sequentially — goroutine fan-out costs more than the handful of calls.
const shardMinConns = 64

// roundCuts returns this round's shard boundaries, or nil when the round
// should take the sequential path. The boundaries are recomputed from the
// round's graph (dynamic schedules change degrees) into a reusable buffer,
// so the steady state allocates nothing beyond the goroutine fan-out.
func (e *Engine) roundCuts(g *graph.Graph, n int) []int32 {
	if e.testCuts != nil {
		return e.testCuts
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		return nil
	}
	e.cuts = g.BalancedCutsInto(w, shardNodeWeight, e.cuts)
	return e.cuts
}

// ensureShardScratch sizes the per-shard scratch for w shards.
func (e *Engine) ensureShardScratch(w int) {
	for len(e.views) < w {
		e.views = append(e.views, make([]Neighbor, 0, 64))
	}
	for len(e.shardPairs) < w {
		e.shardPairs = append(e.shardPairs, make([][2]int32, 0, 16))
	}
	for len(e.shardProps) < w {
		e.shardProps = append(e.shardProps, 0)
	}
	for len(e.shardErrs) < w {
		e.shardErrs = append(e.shardErrs, nil)
	}
	for len(e.shardBase) < w+1 {
		e.shardBase = append(e.shardBase, 0)
	}
	if e.prof != nil {
		for len(e.profShardNs) < w {
			e.profShardNs = append(e.profShardNs, 0)
		}
	}
}

// runShards runs fn(s, lo, hi) for every non-empty shard [cuts[s], cuts[s+1])
// concurrently and waits for all of them (the phase barrier). The last
// non-empty shard runs on the calling goroutine. With a recorder attached
// it also accumulates each shard's compute time into profShardNs (each
// shard writes only its own slot, like shardErrs) and the phase's wall
// time into profParNs. The clock reads sit inline rather than in a
// wrapping timing closure, so profiling adds no allocations beyond the
// goroutine launches (DESIGN.md §13).
func (e *Engine) runShards(cuts []int32, fn func(s, lo, hi int)) {
	last := -1
	for s := 0; s+1 < len(cuts); s++ {
		if cuts[s] < cuts[s+1] {
			last = s
		}
	}
	if last < 0 {
		return
	}
	var t0 time.Time
	if e.prof != nil {
		t0 = time.Now()
	}
	var wg sync.WaitGroup
	for s := 0; s < last; s++ {
		lo, hi := int(cuts[s]), int(cuts[s+1])
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			var ts time.Time
			if e.prof != nil {
				ts = time.Now()
			}
			fn(s, lo, hi)
			if e.prof != nil {
				e.profShardNs[s] += time.Since(ts).Nanoseconds()
			}
		}(s, lo, hi)
	}
	var ts time.Time
	if e.prof != nil {
		ts = time.Now()
	}
	fn(last, int(cuts[last]), int(cuts[last+1]))
	if e.prof != nil {
		e.profShardNs[last] += time.Since(ts).Nanoseconds()
	}
	wg.Wait()
	if e.prof != nil {
		e.profParNs += time.Since(t0).Nanoseconds()
	}
}

// tagSharded runs the advertise phase shard-parallel. Each shard records its
// first tag-width violation; the lowest shard's wins, which — because each
// shard scans ascending — is exactly the lowest-u violation the sequential
// path would have reported.
func (e *Engine) tagSharded(r int, cuts []int32) error {
	w := len(cuts) - 1
	e.ensureShardScratch(w)
	for s := 0; s < w; s++ {
		e.shardErrs[s] = nil
	}
	e.runShards(cuts, func(s, lo, hi int) {
		for u := lo; u < hi; u++ {
			e.tags[u] = e.proto.Tag(r, u)
			if e.tags[u]&^e.tagMask != 0 && e.shardErrs[s] == nil {
				e.shardErrs[s] = fmt.Errorf("%w: node %d round %d tag %#x with b=%d",
					ErrTagTooWide, u, r, e.tags[u], e.proto.TagBits())
			}
		}
	})
	for s := 0; s < w; s++ {
		if err := e.shardErrs[s]; err != nil {
			e.failed = err
			return err
		}
	}
	return nil
}

// decideSharded runs the scan+decide phase shard-parallel: each shard reads
// the complete tag array written before the phase barrier, builds views in
// its own persistent buffer, and draws only from its own nodes' streams.
func (e *Engine) decideSharded(r int, g *graph.Graph, tags []uint64, acts []Action, cuts []int32) {
	e.runShards(cuts, func(s, lo, hi int) {
		view := e.views[s]
		for u := lo; u < hi; u++ {
			view = view[:0]
			for _, v := range g.Adjacency(u) {
				view = append(view, Neighbor{ID: int(v), Tag: tags[v]})
			}
			acts[u] = e.proto.Decide(r, u, view, e.rngs[u])
		}
		e.views[s] = view[:0] // keep any growth for the next round
	})
}

// deliverSharded validates proposals and lays out the flat inbox.
// Sub-phase 1 (u-shards): validate each proposal against the complete
// action array into targets[lo:hi], counting proposals per shard.
// Sub-phase 2 (v-shards): each shard scans the full target array and counts
// only arrivals aimed at its own node range — O(n) per shard wall-clock,
// but cache-friendly and write-disjoint. A tiny sequential reduction over
// the per-shard totals then fixes each shard's inbox base offset, making
// the final layout identical to the sequential prefix sum.
func (e *Engine) deliverSharded(g *graph.Graph, acts []Action, cuts []int32, stats *RoundStats) {
	n := len(e.targets)
	w := len(cuts) - 1
	for s := 0; s < w; s++ {
		e.shardProps[s] = 0
		e.shardBase[s+1] = 0
	}
	e.runShards(cuts, func(s, lo, hi int) {
		props := int64(0)
		for u := lo; u < hi; u++ {
			e.targets[u] = -1
			if !acts[u].Propose {
				continue
			}
			props++
			t := acts[u].Target
			if t < 0 || t >= n || t == u || !g.HasEdge(u, t) {
				continue // malformed proposal is simply lost
			}
			if acts[t].Propose {
				continue // target is itself proposing; cannot receive
			}
			e.targets[u] = int32(t)
		}
		e.shardProps[s] = props
	})
	var tRed time.Time
	if e.prof != nil {
		tRed = time.Now()
	}
	for s := 0; s < w; s++ {
		stats.Proposals += int(e.shardProps[s])
	}
	if e.prof != nil {
		e.profRedNs += time.Since(tRed).Nanoseconds()
	}

	e.runShards(cuts, func(s, lo, hi int) {
		for v := lo; v < hi; v++ {
			e.inCnt[v] = 0
		}
		total := int32(0)
		lo32, hi32 := int32(lo), int32(hi)
		for u := 0; u < n; u++ {
			if t := e.targets[u]; t >= lo32 && t < hi32 {
				e.inCnt[t]++
				total++
			}
		}
		e.shardBase[s+1] = total
	})
	if e.prof != nil {
		tRed = time.Now()
	}
	e.shardBase[0] = 0
	for s := 0; s < w; s++ {
		e.shardBase[s+1] += e.shardBase[s] // per-shard totals → base offsets
	}
	if e.prof != nil {
		e.profRedNs += time.Since(tRed).Nanoseconds()
	}
}

// acceptSharded fills the inbox and draws the acceptances, shard-parallel
// over responder shards, then concatenates the per-shard pair lists in shard
// order — ascending responder order, the sequential engine's pair order.
//
// Each shard derives its nodes' inbox offsets from its base and the counts
// of sub-phase 2, reusing inCnt as the fill cursor exactly like the
// sequential path. The accept loop reads inbox[inOff[v] : inOff[v]+inCnt[v]]
// rather than inOff[v+1]: for a shard's last node, inOff[v+1] belongs to the
// next shard and may not be written yet.
func (e *Engine) acceptSharded(cuts []int32) [][2]int32 {
	n := len(e.targets)
	w := len(cuts) - 1
	for s := 0; s < w; s++ {
		e.shardPairs[s] = e.shardPairs[s][:0]
	}
	e.runShards(cuts, func(s, lo, hi int) {
		off := e.shardBase[s]
		for v := lo; v < hi; v++ {
			e.inOff[v] = off
			off += e.inCnt[v]
			e.inCnt[v] = 0 // reused as the fill cursor below
		}
		lo32, hi32 := int32(lo), int32(hi)
		for u := 0; u < n; u++ {
			if t := e.targets[u]; t >= lo32 && t < hi32 {
				e.inbox[e.inOff[t]+e.inCnt[t]] = int32(u)
				e.inCnt[t]++
			}
		}
		pairs := e.shardPairs[s]
		for v := lo; v < hi; v++ {
			in := e.inbox[e.inOff[v] : e.inOff[v]+e.inCnt[v]]
			if len(in) == 0 {
				continue
			}
			u := in[e.rngs[v].Intn(len(in))]
			pairs = append(pairs, [2]int32{u, int32(v)})
		}
		e.shardPairs[s] = pairs
	})
	var tRed time.Time
	if e.prof != nil {
		tRed = time.Now()
	}
	merged := e.pairs[:0]
	for s := 0; s < w; s++ {
		merged = append(merged, e.shardPairs[s]...)
	}
	if e.prof != nil {
		e.profRedNs += time.Since(tRed).Nanoseconds()
	}
	return merged
}

// exchangeSharded runs the exchange phase over contiguous chunks of the
// connection list. The connections form a matching, so any partition is
// endpoint-disjoint; chunk boundaries need not align with node shards.
func (e *Engine) exchangeSharded(r int, conns []Conn, w int) {
	if len(conns) < shardMinConns || w <= 1 {
		for i := range conns {
			e.proto.Exchange(r, &conns[i])
		}
		return
	}
	if w > len(conns) {
		w = len(conns)
	}
	chunk := (len(conns) + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < len(conns); lo += chunk {
		hi := lo + chunk
		if hi > len(conns) {
			hi = len(conns)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				e.proto.Exchange(r, &conns[i])
			}
		}(lo, hi)
	}
	for i := 0; i < chunk; i++ {
		e.proto.Exchange(r, &conns[i])
	}
	wg.Wait()
}
