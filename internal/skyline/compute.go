package skyline

import "sort"

// BNL computes the skyline with the block-nested-loops algorithm of
// Börzsönyi et al. It returns the indices (into data) of skyline tuples, in
// ascending index order. Duplicate value combinations are all kept (none of
// them dominates the other).
func BNL(data [][]int) []int {
	var window []int // indices of current mutually non-dominated candidates
	for i, t := range data {
		// Window members are mutually non-dominated, so if some member
		// dominates t, transitivity guarantees t dominates no member:
		// the window is left untouched.
		dominated := false
		for _, j := range window {
			if Dominates(data[j], t) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		keep := window[:0]
		for _, j := range window {
			if !Dominates(t, data[j]) {
				keep = append(keep, j)
			}
		}
		window = append(keep, i)
	}
	sort.Ints(window)
	return window
}

// SFS computes the skyline with sort-filter-skyline (Chomicki et al.):
// tuples are scanned in ascending order of attribute sum (a topological
// order of the dominance partial order), so every scanned tuple is either
// dominated by an already-kept tuple or is itself on the skyline. Since
// kept tuples are appended in that same order, the inner scan stops at
// the first kept tuple whose sum is not strictly smaller — a dominator
// must win strictly on at least one attribute and lose on none, so its
// sum is strictly smaller than its victim's.
func SFS(data [][]int) []int {
	order, sums := sumOrder(data)
	var sky []int
	for _, i := range order {
		t := data[i]
		dominated := false
		for _, j := range sky {
			if sums[j] >= sums[i] {
				break
			}
			if Dominates(data[j], t) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, i)
		}
	}
	sort.Ints(sky)
	return sky
}

// sumOrder returns the tuple indices sorted ascending by attribute sum,
// plus the per-tuple sums — the shared presort of SFS and Skyband.
func sumOrder(data [][]int) (order, sums []int) {
	order = make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	sums = make([]int, len(data))
	for i, t := range data {
		s := 0
		for _, v := range t {
			s += v
		}
		sums[i] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return sums[order[a]] < sums[order[b]] })
	return order, sums
}

// Compute is the default skyline routine (SFS).
func Compute(data [][]int) []int { return SFS(data) }

// ComputeTuples returns the skyline as tuple values rather than indices.
func ComputeTuples(data [][]int) [][]int {
	idx := Compute(data)
	out := make([][]int, len(idx))
	for i, j := range idx {
		out[i] = data[j]
	}
	return out
}

// DivideConquer computes the skyline by median-split divide and conquer on
// the first attribute, merging partial skylines. Provided as an independent
// implementation for cross-checking; results match BNL/SFS.
func DivideConquer(data [][]int) []int {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	res := dcRec(data, idx)
	sort.Ints(res)
	return res
}

func dcRec(data [][]int, idx []int) []int {
	if len(idx) <= 32 {
		return filterLocal(data, idx)
	}
	// Split by median of attribute 0.
	vals := make([]int, len(idx))
	for i, j := range idx {
		vals[i] = data[j][0]
	}
	sort.Ints(vals)
	med := vals[len(vals)/2]
	var lo, hi []int
	for _, j := range idx {
		if data[j][0] < med {
			lo = append(lo, j)
		} else {
			hi = append(hi, j)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		return filterLocal(data, idx)
	}
	sl := dcRec(data, lo)
	sh := dcRec(data, hi)
	// Every tuple in sl is on the skyline of lo∪hi (nothing in hi can
	// dominate it on attribute 0 unless equal... values >= med there, lo
	// values < med, so hi cannot dominate lo). Filter sh against sl.
	out := append([]int(nil), sl...)
	for _, j := range sh {
		dominated := false
		for _, i := range sl {
			if Dominates(data[i], data[j]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, j)
		}
	}
	return out
}

func filterLocal(data [][]int, idx []int) []int {
	var out []int
	for _, i := range idx {
		dominated := false
		for _, j := range idx {
			if i != j && Dominates(data[j], data[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// Skyband returns the indices of tuples dominated by fewer than kBand other
// tuples (the K-skyband). Skyband(data, 1) equals the skyline.
//
// Candidates are presorted by attribute sum: a dominator's sum is strictly
// smaller than its victim's, so each tuple's dominators are confined to the
// strictly-smaller-sum prefix of the order, and counting early-terminates
// the moment kBand dominators are found — replacing the all-pairs
// DominationCount scan. On band-friendly data (small bands, large n) the
// prefix scan stops after a handful of comparisons per excluded tuple.
func Skyband(data [][]int, kBand int) []int {
	if kBand < 1 {
		return nil
	}
	var out []int
	for i, c := range SkybandCounts(data, kBand) {
		if c < kBand {
			out = append(out, i)
		}
	}
	return out
}

// SkybandCounts returns, for each tuple, the number of other tuples that
// dominate it, capped at kBand (kBand >= 1): a count below kBand is exact,
// kBand means kBand or more. It is Skyband's sum-presorted scan, so a
// tuple's count stops growing the moment it reaches the cap.
func SkybandCounts(data [][]int, kBand int) []int {
	order, sums := sumOrder(data)
	counts := make([]int, len(data))
	for pos, i := range order {
		count := 0
		for _, j := range order[:pos] {
			if sums[j] >= sums[i] {
				break // the rest of the prefix ties on sum: no dominators there
			}
			if Dominates(data[j], data[i]) {
				if count++; count >= kBand {
					break
				}
			}
		}
		counts[i] = count
	}
	return counts
}

// IsSkyline reports whether tuple t is on the skyline of data ∪ {t} — i.e.,
// no tuple in data dominates it.
func IsSkyline(data [][]int, t []int) bool {
	for _, u := range data {
		if Dominates(u, t) {
			return false
		}
	}
	return true
}

// Merge adds tuple t (by value) to a skyline set maintained as a slice of
// tuples: if t is dominated it is discarded; otherwise t is added and every
// tuple t dominates is removed. Returns the updated set and whether t was
// kept. Duplicates of an existing tuple are not re-added.
func Merge(sky [][]int, t []int) ([][]int, bool) {
	for _, u := range sky {
		if Dominates(u, t) || Equal(u, t) {
			return sky, false
		}
	}
	out := sky[:0]
	for _, u := range sky {
		if !Dominates(t, u) {
			out = append(out, u)
		}
	}
	return append(out, t), true
}
