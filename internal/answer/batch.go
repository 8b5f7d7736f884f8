// Top-k scoring: the one kernel behind TopK, TopKAppend and TopKBatch.
//
// A call answers B weight vectors (B=1 for TopK/TopKAppend) in one fused
// pass over the candidate columns. The sweep is blocked so everything
// stays cache-resident: per block it gathers each needed attribute once
// (or slices the store columns directly when the candidate set covers
// the whole store — the common full-band case, where no gather happens
// at all — or, for a lone generic query, reads the columns through the
// candidate index), runs one contiguous multiply-add pass per member per
// attribute, and immediately folds the block's scores into each member's
// selection window while they are still in L1. On 4-attribute stores a
// query with no zero weight takes the register kernel (fusedBlock4): no
// score row, the selection threshold in a register.
//
// Queries are grouped by candidate set before scoring: all unfiltered
// queries share the level-arena prefix of the largest K (each member
// selects only over its own prefix), and filtered queries share a sweep
// exactly when their Filter clauses are equal. Scores accumulate in
// ascending attribute order, exactly like the row-major ReferenceTopK,
// so every answer is bit-identical with it — selection uses the same
// deterministic total order (score, then tuple, then index), which makes
// it independent of candidate iteration order and of how the sweep is
// split into blocks and ranges.
//
// The whole call runs in one pooled batchScratch; with a reused result
// slice the steady-state path is allocation-free. Candidate sets past
// minParallelCandidates fan out across contiguous shard-wide ranges,
// each with its own selection windows, merged deterministically.
package answer

import (
	"fmt"
	"sync"
	"time"
)

// batchBlockElems is the candidate-block width of the fused sweep: one
// block of every attribute column plus one member's score segment stay
// cache-resident across the whole member loop.
const batchBlockElems = 1024

// shardSize is the candidate width of one fan-out range.
const shardSize = 2048

// minParallelCandidates is the calibrated candidate-count threshold
// below which a sweep never spawns goroutines: under ~8k candidates the
// fused sweep finishes in single-digit microseconds, so the goroutine +
// WaitGroup machinery costs more than it saves. Candidate sets must
// exceed both this and the store's shard width to fan out.
const minParallelCandidates = 1 << 13

// member is one query of the candidate group being swept.
type member struct {
	qi   int  // index of the query in the call
	n    int  // candidate prefix length
	k    int  // effective k: min(K, n)
	norm bool // scores the normalized columns
	full bool // prefix covers the whole group: selection fused into the sweep
	fast bool // register kernel: m == 4, full prefix, no zero weight
}

// batchScratch is the pooled working set of one top-k call.
type batchScratch struct {
	done []bool   // query already claimed by a group
	mem  []member // the current group
	cand []int    // filtered-group candidate buffer

	wflat  []float64 // member weights (B×m)
	rows   []float64 // per-member score rows (B×n)
	gather []float64 // per-range gathered blocks: m raw, then m normalized

	// Fused selection windows, member-major: member b's window for range
	// r starts at (b*ranges+r)*kMax and holds winLen[b*ranges+r] entries.
	winIdx []int
	winSc  []float64
	winLen []int
	// Final per-member selection (range merges, the register kernel's
	// unsorted windows, short prefixes): member b owns [b*kMax, (b+1)*kMax).
	selIdx []int
	selSc  []float64

	// TopKAppend's query and result, held here so neither escapes.
	one    [1]TopKQuery
	oneOut [1]TopKResult

	// identity marks a group whose candidate set covers every stored
	// tuple: candidate positions are tuple ids and the sweep reads the
	// store columns directly.
	identity bool
	// gathered marks a gather-mode group scoring from gathered blocks; a
	// lone generic member instead reads the columns through cand.
	gathered          bool
	needRaw, needNorm bool // some member reads the raw / normalized columns
	fastRaw, fastNorm bool // some register-kernel member does
	// kMax, the width of every window, is the largest member k — a
	// full-prefix member's, since a short prefix means a smaller K.
	kMax   int
	ranges int // fan-out width (1: inline)
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// growInts returns b with length n (reallocating only beyond capacity).
func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// CheckQuery validates q against the store — weights, k, filter ranges —
// without answering it. The service coalescer uses it to reject a
// malformed request individually before folding the rest of a window
// into one batch (TopKBatchInto is all-or-nothing on validation).
func (s *Store) CheckQuery(q TopKQuery) error { return s.checkQuery(&q) }

// TopKBatch answers every query in one fused column sweep per candidate
// group. The result is positionally parallel to qs and each entry is
// exactly what TopKAppend would have returned for that query alone.
func (s *Store) TopKBatch(qs []TopKQuery) ([]TopKResult, error) {
	return s.TopKBatchInto(qs, nil)
}

// TopKBatchInto is TopKBatch reusing out (and each out[i].Items) as
// append buffers, the batch analogue of TopKAppend: with capacities from
// a previous call the steady-state path performs no allocation.
// Validation is all-or-nothing — if any query is malformed the whole
// batch fails with the offending index and nothing is scored.
func (s *Store) TopKBatchInto(qs []TopKQuery, out []TopKResult) ([]TopKResult, error) {
	m := s.metrics
	if m == nil || m.BatchSeconds == nil {
		return s.topKBatchInto(qs, out)
	}
	t0 := time.Now()
	res, err := s.topKBatchInto(qs, out)
	m.BatchSeconds.Observe(time.Since(t0))
	if m.BatchSize != nil {
		m.BatchSize.Observe(time.Duration(len(qs)))
	}
	return res, err
}

func (s *Store) topKBatchInto(qs []TopKQuery, out []TopKResult) ([]TopKResult, error) {
	for i := range qs {
		if err := s.checkQuery(&qs[i]); err != nil {
			return out, fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = append(out[:cap(out)], make([]TopKResult, len(qs)-cap(out))...)
	}
	if len(qs) == 0 {
		return out, nil
	}
	bs := batchScratchPool.Get().(*batchScratch)
	s.answer(bs, qs, out)
	batchScratchPool.Put(bs)
	return out, nil
}

// answer is the kernel body shared by every entry point: it answers the
// already-validated qs into out (len(out) == len(qs), each out[i].Items
// reused as an append buffer) in one sweep per candidate group.
func (s *Store) answer(bs *batchScratch, qs []TopKQuery, out []TopKResult) {
	bs.done = growBools(bs.done, len(qs))
	clear(bs.done)
	// Group 1: every unfiltered query shares the level-arena prefix of
	// the largest K. The top-k of a monotone score lies in the first k
	// layers (every layer-l tuple is dominated by a chain of l strictly
	// better ones), so each member selects only over its own prefix.
	bs.mem = bs.mem[:0]
	maxLast := 0
	for i := range qs {
		if len(qs[i].Filter) != 0 {
			continue
		}
		bs.done[i] = true
		last := min(qs[i].K, s.numLevels())
		bs.mem = append(bs.mem, member{qi: i, n: s.levelOff[last]})
		maxLast = max(maxLast, last)
	}
	if len(bs.mem) > 0 {
		s.batchGroup(qs, out, s.levelArena[:s.levelOff[maxLast]], bs)
	}
	// Remaining groups: filtered queries, one sweep per distinct filter.
	for i := range qs {
		if bs.done[i] {
			continue
		}
		bs.cand = s.filteredInto(bs.cand[:0], qs[i].Filter)
		bs.mem = bs.mem[:0]
		for j := i; j < len(qs); j++ {
			if bs.done[j] || !equalFilter(qs[i].Filter, qs[j].Filter) {
				continue
			}
			bs.done[j] = true
			bs.mem = append(bs.mem, member{qi: j, n: len(bs.cand)})
		}
		s.batchGroup(qs, out, bs.cand, bs)
	}
}

// equalFilter reports clause-for-clause equality — the grouping key of a
// shared filtered sweep. Queries spelling the same predicate in a
// different clause order land in separate groups, which only costs a
// sweep, never correctness.
func equalFilter(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchGroup scores one candidate group (bs.mem against cand) and writes
// each member's answer into out.
func (s *Store) batchGroup(qs []TopKQuery, out []TopKResult, cand []int, bs *batchScratch) {
	n := len(cand)
	if n == 0 {
		for _, mb := range bs.mem {
			// No candidates: nil items, and a filtered answer is never exact.
			out[mb.qi] = TopKResult{Exact: len(qs[mb.qi].Filter) == 0 && qs[mb.qi].K <= s.bandK}
		}
		return
	}
	m := s.m
	bcount := len(bs.mem)
	bs.identity = n == len(s.tuples)
	bs.needRaw, bs.needNorm, bs.fastRaw, bs.fastNorm = false, false, false, false
	bs.kMax = 0
	bs.wflat = growFloats(bs.wflat, bcount*m)
	for b := range bs.mem {
		mb := &bs.mem[b]
		q := &qs[mb.qi]
		w := bs.wflat[b*m : b*m+m]
		copy(w, q.Weights)
		mb.norm = q.Normalized
		mb.k = min(q.K, mb.n)
		// A member whose candidate prefix covers the whole group feeds a
		// fused selection window during the sweep; a shorter prefix
		// selects post hoc over its score row.
		mb.full = mb.n == n
		// The register kernel needs the full prefix (no score row is
		// materialized) and no zero weights: with every weight nonzero
		// the full dot-product chain is the same addition sequence the
		// zero-skipping generic path produces, so exactness holds.
		mb.fast = mb.full && m == 4 && w[0] != 0 && w[1] != 0 && w[2] != 0 && w[3] != 0
		bs.kMax = max(bs.kMax, mb.k)
		if mb.norm {
			bs.needNorm = true
			bs.fastNorm = bs.fastNorm || mb.fast
		} else {
			bs.needRaw = true
			bs.fastRaw = bs.fastRaw || mb.fast
		}
	}
	bs.gathered = !bs.identity && (bcount > 1 || bs.mem[0].fast)
	bs.rows = growFloats(bs.rows, bcount*n)

	bs.ranges = 1
	if n > max(s.shard, minParallelCandidates) {
		bs.ranges = (n + s.shard - 1) / s.shard
	}
	if bs.gathered {
		bs.gather = growFloats(bs.gather, bs.ranges*2*m*batchBlockElems)
	}
	slots := bcount * bs.ranges
	bs.winIdx = growInts(bs.winIdx, slots*bs.kMax)
	bs.winSc = growFloats(bs.winSc, slots*bs.kMax)
	bs.winLen = growInts(bs.winLen, slots)
	clear(bs.winLen)
	bs.selIdx = growInts(bs.selIdx, bcount*bs.kMax)
	bs.selSc = growFloats(bs.selSc, bcount*bs.kMax)
	if bs.ranges == 1 {
		s.batchScoreRange(bs, cand, 0, n, 0)
	} else {
		s.batchScoreParallel(bs, cand)
	}
	if bs.ranges == 1 || bcount == 1 {
		for b := range bs.mem {
			s.batchEmit(qs, out, cand, bs, b)
		}
		return
	}
	s.batchEmitParallel(qs, out, cand, bs)
}

// batchScoreParallel is the fan-out arm of the sweep, split out of
// batchGroup so its goroutine closures cannot force the WaitGroup or
// loop state to escape on small inline calls: contiguous candidate
// ranges of one shard each. Score rows, gather blocks and per-range
// windows are disjoint slices of the shared scratch, so no locking.
func (s *Store) batchScoreParallel(bs *batchScratch, cand []int) {
	var wg sync.WaitGroup
	for r := 0; r < bs.ranges; r++ {
		from := r * s.shard
		to := min(from+s.shard, len(cand))
		wg.Add(1)
		go func(r, from, to int) {
			defer wg.Done()
			s.batchScoreRange(bs, cand, from, to, r)
		}(r, from, to)
	}
	wg.Wait()
}

// batchEmitParallel fans answer assembly out across members: merging
// range windows is cheap, but post-hoc prefix selection is O(n) per
// member, and even the merges add up at large B. Members write disjoint
// out entries and selection slots.
func (s *Store) batchEmitParallel(qs []TopKQuery, out []TopKResult, cand []int, bs *batchScratch) {
	var wg sync.WaitGroup
	workers := min(len(bs.mem), 2*s.shardWorkers())
	chunk := (len(bs.mem) + workers - 1) / workers
	for lo := 0; lo < len(bs.mem); lo += chunk {
		hi := min(lo+chunk, len(bs.mem))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for b := lo; b < hi; b++ {
				s.batchEmit(qs, out, cand, bs, b)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// shardWorkers approximates the fan-out width of one full-arena sweep;
// the member-parallel emit arm uses it to bound goroutine count.
func (s *Store) shardWorkers() int {
	return max(1, (len(s.tuples)+s.shard-1)/s.shard)
}

// batchScoreRange runs the fused sweep for candidates [from, to) of
// range r, one cache-resident block at a time: gather each needed
// attribute block once (gathered mode), one contiguous multiply-add pass
// per member per attribute, then fold the block's scores into the
// member's selection window while they are still hot. Scores accumulate
// in ascending attribute order — the same addition sequence as the
// row-major reference, including its leading zero — so answers are
// bit-identical with it (skipped zero weights contribute +0.0, which
// never changes a sum initialized at +0.0).
func (s *Store) batchScoreRange(bs *batchScratch, cand []int, from, to, r int) {
	m := s.m
	n := len(cand)
	var raw, norm []float64
	if bs.gathered {
		g := bs.gather[r*2*m*batchBlockElems : (r+1)*2*m*batchBlockElems]
		raw, norm = g[:m*batchBlockElems], g[m*batchBlockElems:]
	}
	for lo := from; lo < to; lo += batchBlockElems {
		hi := min(lo+batchBlockElems, to)
		if bs.gathered {
			for a := 0; a < m; a++ {
				if bs.needRaw {
					gatherBlock(raw[a*batchBlockElems:], s.cols[a], cand[lo:hi])
				}
				if bs.needNorm {
					gatherBlock(norm[a*batchBlockElems:], s.norm[a], cand[lo:hi])
				}
			}
		}
		// Register-kernel members first: no score row, selection
		// threshold in a register, the window touched only by the few
		// candidates that beat it.
		for pass := 0; pass < 2; pass++ {
			wantNorm := pass == 1
			if (wantNorm && !bs.fastNorm) || (!wantNorm && !bs.fastRaw) {
				continue
			}
			cols, g := s.cols, raw
			if wantNorm {
				cols, g = s.norm, norm
			}
			var b0, b1, b2, b3 []float64
			if bs.identity {
				b0, b1, b2, b3 = cols[0][lo:hi], cols[1][lo:hi], cols[2][lo:hi], cols[3][lo:hi]
			} else {
				b0, b1 = g[0:], g[batchBlockElems:]
				b2, b3 = g[2*batchBlockElems:], g[3*batchBlockElems:]
			}
			for b := range bs.mem {
				if bs.mem[b].fast && bs.mem[b].norm == wantNorm {
					s.fusedBlock4(bs, cand, lo, hi, r, b, b0, b1, b2, b3)
				}
			}
		}
		for b := range bs.mem {
			mb := &bs.mem[b]
			if mb.fast {
				continue
			}
			end := hi
			// In identity mode every member scores the full range (a
			// short-prefix member selects post hoc); in gather mode a
			// member only needs its own candidate prefix.
			if !bs.identity {
				if mb.n <= lo {
					continue
				}
				end = min(end, mb.n)
			}
			row := bs.rows[b*n+lo : b*n+end]
			cols, g := s.cols, raw
			if mb.norm {
				cols, g = s.norm, norm
			}
			for a, w := range bs.wflat[b*m : b*m+m] {
				if a > 0 && w == 0 {
					continue
				}
				switch {
				case bs.identity:
					addCol(row, cols[a][lo:end], w, a == 0)
				case bs.gathered:
					addCol(row, g[a*batchBlockElems:], w, a == 0)
				default:
					addColIndexed(row, cols[a], cand[lo:end], w, a == 0)
				}
			}
			if mb.full {
				// Fold the hot block into this member's range window.
				slot := b*bs.ranges + r
				off := slot * bs.kMax
				win := bs.winIdx[off : off+bs.winLen[slot] : off+bs.kMax]
				winSc := bs.winSc[off : off+bs.winLen[slot] : off+bs.kMax]
				if bs.identity {
					win, winSc = s.selectWindowSeq(lo, end, row, mb.k, win, winSc)
				} else {
					win, winSc = s.selectWindow(cand[lo:end], row, mb.k, win, winSc)
				}
				bs.winLen[slot] = len(win)
			}
		}
	}
}

// gatherBlock copies col[cand[j]] into dst[j].
func gatherBlock(dst, col []float64, cand []int) {
	dst = dst[:len(cand)]
	for j, i := range cand {
		dst[j] = col[i]
	}
}

// addCol accumulates w·col into row. The first attribute assigns
// instead of zero-then-add; its explicit +0 reproduces the reference's
// 0 + w·v addition bit for bit (it turns a -0.0 product into the +0.0 a
// zeroed accumulator would have given).
func addCol(row, col []float64, w float64, first bool) {
	col = col[:len(row)]
	if first {
		for j, v := range col {
			row[j] = w*v + 0
		}
		return
	}
	for j, v := range col {
		row[j] += w * v
	}
}

// addColIndexed is addCol reading col through the candidate index.
func addColIndexed(row, col []float64, cand []int, w float64, first bool) {
	cand = cand[:len(row)]
	if first {
		for j, i := range cand {
			row[j] = w*col[i] + 0
		}
		return
	}
	for j, i := range cand {
		row[j] += w * col[i]
	}
}

// fusedBlock4 is the register kernel of the sweep, for full-prefix
// members on 4-attribute stores with no zero weights: the dot product
// and the selection threshold both live in registers, so a candidate
// that cannot enter the window (the overwhelming majority once the
// window fills) costs four multiply-adds and one compare — no score row
// is stored and no second selection pass runs. The candidate loop is
// unrolled by two so the two dot-product chains overlap.
//
// Unlike selectWindow, the kernel keeps its window UNSORTED: an
// accepted candidate overwrites the worst entry and a k-wide rescan
// refreshes the threshold — no memmove, no ordered insertion walk.
// The window is a set, and the top-k set under better()'s strict total
// order is the same whatever order candidates arrive or entries sit
// in; batchEmit runs one final k-wide selectWindow over the window to
// produce the sorted answer.
//
// Exactness of the score: with every weight nonzero the full chain
// w0·v0 + 0 + w1·v1 + w2·v2 + w3·v3 is the same left-associated
// addition sequence the reference produces (the +0 restores the +0.0 a
// zero-initialized accumulator gives when the first product is -0.0,
// and x+0 == 0+x bitwise for any non-NaN x). The threshold test only
// skips candidates with sc > worst score, which better() already
// rejects; ties re-check the full total order before replacing.
func (s *Store) fusedBlock4(bs *batchScratch, cand []int, lo, hi, r, b int, b0, b1, b2, b3 []float64) {
	cnt := hi - lo
	b0, b1, b2, b3 = b0[:cnt], b1[:cnt], b2[:cnt], b3[:cnt]
	k := bs.mem[b].k
	slot := b*bs.ranges + r
	off := slot * bs.kMax
	fill := bs.winLen[slot]
	win := bs.winIdx[off : off+k]
	winSc := bs.winSc[off : off+k]
	u0, u1, u2, u3 := bs.wflat[b*4], bs.wflat[b*4+1], bs.wflat[b*4+2], bs.wflat[b*4+3]
	j := 0
	// Fill phase: the first k candidates always enter.
	for ; fill < k && j < cnt; j++ {
		id := lo + j
		if !bs.identity {
			id = cand[lo+j]
		}
		win[fill] = id
		winSc[fill] = u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]
		fill++
	}
	bs.winLen[slot] = fill
	if j == cnt {
		return
	}
	// Steady state: worst entry and its score live in registers.
	wp := s.worstOf(win, winSc)
	thr := winSc[wp]
	// Two-level loop: the inner scan is call-free (a call in the loop
	// body would force the weights and threshold out of registers —
	// amd64 has no callee-saved float registers) and breaks out only for
	// the rare candidate that ties or beats the threshold. The scan
	// handles two candidates per iteration: each keeps its own
	// left-associated chain (so scores stay bit-identical) but the two
	// chains are independent, halving the loop overhead per candidate
	// and keeping both in flight across the FP units instead of
	// serializing on one chain's latency.
	for {
		var sc0, sc1 float64
		for ; j+2 <= cnt; j += 2 {
			sc0 = u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]
			sc1 = u0*b0[j+1] + 0 + u1*b1[j+1] + u2*b2[j+1] + u3*b3[j+1]
			if sc0 <= thr || sc1 <= thr {
				break
			}
		}
		if j+2 > cnt {
			// Tail: at most one candidate left.
			if j < cnt {
				if sc := u0*b0[j] + 0 + u1*b1[j] + u2*b2[j] + u3*b3[j]; sc <= thr {
					s.fusedReplace(bs, cand, win, winSc, wp, lo+j, sc)
				}
			}
			return
		}
		// One (or both) of the pair ties or beats the threshold. Replays
		// run in candidate order, and the second compare uses the
		// threshold the first replace may have moved — the same sequence
		// a one-at-a-time scan performs.
		if sc0 <= thr {
			wp, thr = s.fusedReplace(bs, cand, win, winSc, wp, lo+j, sc0)
		}
		if sc1 <= thr {
			wp, thr = s.fusedReplace(bs, cand, win, winSc, wp, lo+j+1, sc1)
		}
		j += 2
	}
}

// fusedReplace is fusedBlock4's slow path: candidate pos (an identity
// offset, mapped through cand in gather mode) tied or beat the window's
// worst score. Re-check the full total order, overwrite the worst
// entry, rescan for the new worst.
func (s *Store) fusedReplace(bs *batchScratch, cand, win []int, winSc []float64, wp, pos int, sc float64) (int, float64) {
	id := pos
	if !bs.identity {
		id = cand[pos]
	}
	// sc <= winSc[wp] held at the call site; only an exact score tie
	// needs the full total order to decide.
	if sc == winSc[wp] && !s.better(sc, id, sc, win[wp]) {
		return wp, winSc[wp]
	}
	win[wp], winSc[wp] = id, sc
	wp = s.worstOf(win, winSc)
	return wp, winSc[wp]
}

// worstOf returns the index of the window's worst entry under the
// selection total order (largest score, ties to larger tuple/index).
func (s *Store) worstOf(win []int, winSc []float64) int {
	wp := 0
	for x := 1; x < len(winSc); x++ {
		if winSc[x] > winSc[wp] {
			wp = x
		} else if winSc[x] == winSc[wp] && s.better(winSc[wp], win[wp], winSc[x], win[x]) {
			wp = x
		}
	}
	return wp
}

// selectWindow keeps the (up to) k best of the pre-scored candidates by
// insertion into a small ordered window — O(n·k) with k tiny, no
// allocation (win/winSc must have capacity k). The winner scores ride
// along, so nothing downstream re-scores.
func (s *Store) selectWindow(cand []int, scores []float64, k int, win []int, winSc []float64) ([]int, []float64) {
	for j, i := range cand {
		if sc := scores[j]; len(win) < k || s.better(sc, i, winSc[k-1], win[k-1]) {
			win, winSc = s.insert(win, winSc, k, i, sc)
		}
	}
	return win, winSc
}

// selectWindowSeq is selectWindow for identity mode: candidate ids are
// the consecutive range [from, to) and scores sits at scores[i-from].
func (s *Store) selectWindowSeq(from, to int, scores []float64, k int, win []int, winSc []float64) ([]int, []float64) {
	for i := from; i < to; i++ {
		if sc := scores[i-from]; len(win) < k || s.better(sc, i, winSc[k-1], win[k-1]) {
			win, winSc = s.insert(win, winSc, k, i, sc)
		}
	}
	return win, winSc
}

// selectWindowByID is selectWindow with id-indexed scores: candidate
// cand[j]'s score lives at rowByID[cand[j]]. Used by the post-hoc
// selection of identity-mode members with a short candidate prefix.
func (s *Store) selectWindowByID(cand []int, rowByID []float64, k int, win []int, winSc []float64) ([]int, []float64) {
	for _, i := range cand {
		if sc := rowByID[i]; len(win) < k || s.better(sc, i, winSc[k-1], win[k-1]) {
			win, winSc = s.insert(win, winSc, k, i, sc)
		}
	}
	return win, winSc
}

// insert places candidate (i, sc), which outranks the window's worst
// entry (or the window is not yet full), at its sorted position,
// dropping the worst entry of a full window.
func (s *Store) insert(win []int, winSc []float64, k, i int, sc float64) ([]int, []float64) {
	if len(win) < k {
		win = append(win, 0)
		winSc = append(winSc, 0)
	}
	// Shift worse entries up one slot while walking down to the
	// candidate's position; a full window's worst entry falls off the
	// end. k is small, so an element loop beats a memmove call.
	pos := len(win) - 1
	for pos > 0 && s.better(sc, i, winSc[pos-1], win[pos-1]) {
		win[pos], winSc[pos] = win[pos-1], winSc[pos-1]
		pos--
	}
	win[pos], winSc[pos] = i, sc
	return win, winSc
}

// better reports whether candidate (sc, i) outranks (so, j): smaller
// score first, then lexicographically smaller tuple, then index.
func (s *Store) better(sc float64, i int, so float64, j int) bool {
	if sc != so {
		return sc < so
	}
	a, b := s.tuples[i], s.tuples[j]
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return i < j
}

// batchEmit assembles one member's answer: take its sorted fused window
// as-is, or select over its range windows (merging them and ordering the
// register kernel's unsorted ones) or over its short prefix, then write
// the result reusing out[qi].Items as the append buffer. Safe to call
// concurrently for distinct members.
func (s *Store) batchEmit(qs []TopKQuery, out []TopKResult, cand []int, bs *batchScratch, b int) {
	mb := &bs.mem[b]
	n := len(cand)
	so := b * bs.kMax
	sel, selSc := bs.selIdx[so:so:so+bs.kMax], bs.selSc[so:so:so+bs.kMax]
	var idx []int
	var scores []float64
	switch {
	case !mb.full && bs.identity:
		idx, scores = s.selectWindowByID(cand[:mb.n], bs.rows[b*n:(b+1)*n], mb.k, sel, selSc)
	case !mb.full:
		idx, scores = s.selectWindow(cand[:mb.n], bs.rows[b*n:b*n+mb.n], mb.k, sel, selSc)
	case bs.ranges == 1 && !mb.fast:
		// selectWindow kept this window sorted; it is the answer as-is.
		off := b * bs.kMax
		idx, scores = bs.winIdx[off:off+bs.winLen[b]], bs.winSc[off:off+bs.winLen[b]]
	default:
		// Compact the member's range windows (already scored) to the
		// front of its region, then run one final selection over them.
		base := b * bs.ranges * bs.kMax
		cnt := 0
		for r := 0; r < bs.ranges; r++ {
			off, fill := base+r*bs.kMax, bs.winLen[b*bs.ranges+r]
			copy(bs.winIdx[base+cnt:], bs.winIdx[off:off+fill])
			copy(bs.winSc[base+cnt:], bs.winSc[off:off+fill])
			cnt += fill
		}
		idx, scores = s.selectWindow(bs.winIdx[base:base+cnt], bs.winSc[base:base+cnt], mb.k, sel, selSc)
	}
	items := out[mb.qi].Items[:0]
	for x, i := range idx {
		items = append(items, Ranked{Tuple: s.tuples[i], Score: scores[x], Level: s.level[i]})
	}
	if len(items) == 0 {
		items = nil
	}
	q := &qs[mb.qi]
	out[mb.qi] = TopKResult{Items: items, Exact: len(q.Filter) == 0 && q.K <= s.bandK}
}
