package answer

// The retained reference implementation of TopK. This is the seed's
// row-major, allocating hot path, kept verbatim as an oracle:
//
//   - the parity suites (answer parity tests, run under -race) prove
//     the fused kernel observationally identical on randomized stores;
//   - TestReadPathRatios bounds the B=16 batch sweep's per-vector speed
//     against it on the same store and machine;
//   - perfbench's answer_http workload computes the expected answer of
//     every request with it.
//
// It is not called by any serving path.

// ReferenceTopK answers a top-k request exactly like TopK, via the
// naive pre-arena implementation: per-request candidate append loops,
// row-major per-tuple scoring, and a final re-scoring of the winners.
// TopK must return byte-identical results.
func (s *Store) ReferenceTopK(q TopKQuery) (TopKResult, error) {
	if err := s.checkQuery(&q); err != nil {
		return TopKResult{}, err
	}
	var cand []int
	if len(q.Filter) == 0 {
		for l := 0; l < s.numLevels() && l < q.K; l++ {
			cand = append(cand, s.levelSlice(l)...)
		}
	} else {
		cand = s.filtered(q.Filter)
	}
	items := s.refSelectTopK(cand, q, q.K)
	exact := len(q.Filter) == 0 && q.K <= s.bandK
	return TopKResult{Items: items, Exact: exact}, nil
}

// refScore computes the request's score of tuple i row-major, the way
// the seed did.
func (s *Store) refScore(q *TopKQuery, i int) float64 {
	sum := 0.0
	if q.Normalized {
		for a, w := range q.Weights {
			sum += w * s.norm[a][i]
		}
		return sum
	}
	t := s.tuples[i]
	for a, w := range q.Weights {
		sum += w * float64(t[a])
	}
	return sum
}

// refSelectTopK is the seed's selectTopK: spawn a goroutine per shard
// whenever the candidate set exceeds one shard, merge, and re-rank.
func (s *Store) refSelectTopK(cand []int, q TopKQuery, k int) []Ranked {
	if len(cand) == 0 {
		return nil
	}
	if k > len(cand) {
		k = len(cand)
	}
	if len(cand) <= s.shard {
		return s.refRank(s.refLocalTopK(cand, &q, k), &q)
	}
	shards := (len(cand) + s.shard - 1) / s.shard
	locals := make([][]int, shards)
	done := make(chan int, shards)
	for sh := 0; sh < shards; sh++ {
		from := sh * s.shard
		to := from + s.shard
		if to > len(cand) {
			to = len(cand)
		}
		go func(sh int, part []int) {
			locals[sh] = s.refLocalTopK(part, &q, k)
			done <- sh
		}(sh, cand[from:to])
	}
	for i := 0; i < shards; i++ {
		<-done
	}
	var merged []int
	for _, l := range locals {
		merged = append(merged, l...)
	}
	return s.refRank(s.refLocalTopK(merged, &q, k), &q)
}

// refLocalTopK is the seed's localTopK: insertion into a small ordered
// window, allocating the window per request and scoring row-major.
func (s *Store) refLocalTopK(cand []int, q *TopKQuery, k int) []int {
	best := make([]int, 0, k)
	scores := make([]float64, 0, k)
	for _, i := range cand {
		sc := s.refScore(q, i)
		if len(best) == k && !s.better(sc, i, scores[k-1], best[k-1]) {
			continue
		}
		pos := len(best)
		for pos > 0 && s.better(sc, i, scores[pos-1], best[pos-1]) {
			pos--
		}
		if len(best) < k {
			best = append(best, 0)
			scores = append(scores, 0)
		}
		copy(best[pos+1:], best[pos:])
		copy(scores[pos+1:], scores[pos:])
		best[pos], scores[pos] = i, sc
	}
	return best
}

// refRank is the seed's rank: it re-scores every winner (the
// double-scoring the arena path eliminates by threading scores
// through the selection window).
func (s *Store) refRank(idx []int, q *TopKQuery) []Ranked {
	out := make([]Ranked, len(idx))
	for x, i := range idx {
		out[x] = Ranked{Tuple: s.tuples[i], Score: s.refScore(q, i), Level: s.level[i]}
	}
	return out
}
