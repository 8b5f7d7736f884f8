package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"hiddensky/internal/datagen"
	"hiddensky/internal/skyline"
)

// The checks compare every discovery with ground truth computed once in
// setup from the store's raw rows, and every answer with the answer
// store's reference scorer. They never consult the code under test for
// the expected value.

// tupleKey is a map key for one tuple.
func tupleKey(t []int) string {
	b := make([]byte, 0, 8*len(t))
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// distinct drops repeated rows (and their filter values). The paper
// assumes general position; a value-level top-k interface cannot tell
// duplicates apart, so K-skyband counts are only defined without them.
func distinct(ds datagen.Dataset) datagen.Dataset {
	seen := map[string]bool{}
	out := ds
	out.Data = nil
	out.Filters = nil
	var key []byte
	for i, t := range ds.Data {
		key = key[:0]
		for _, v := range t {
			key = binary.LittleEndian.AppendUint64(key, uint64(v))
		}
		if seen[string(key)] { // a lookup that does not allocate
			continue
		}
		seen[string(key)] = true
		out.Data = append(out.Data, t)
		if ds.Filters != nil {
			out.Filters = append(out.Filters, ds.Filters[i])
		}
	}
	return out
}

// expected is the ground-truth K-skyband of a store: each band tuple with
// the number of rows dominating it.
type expected struct {
	band   int
	counts map[string]int
}

// groundTruth computes the K-skyband of rows (K = band, 1 for a skyline).
func groundTruth(rows [][]int, band int) expected {
	k := max(band, 1)
	e := expected{band: band, counts: map[string]int{}}
	for _, i := range skyline.Skyband(rows, k) {
		n := 0
		if band > 0 {
			for _, u := range rows {
				if skyline.Dominates(u, rows[i]) {
					n++
				}
			}
		}
		e.counts[tupleKey(rows[i])] = n
	}
	return e
}

// check compares a discovered skyline (or band, with its counts) with the
// ground truth. counts may be nil for a plain skyline.
func (e expected) check(tuples [][]int, counts []int, complete bool) error {
	if !complete {
		return fmt.Errorf("discovery reported an incomplete result")
	}
	if len(tuples) != len(e.counts) {
		return fmt.Errorf("discovered %d tuples, ground truth has %d", len(tuples), len(e.counts))
	}
	if e.band > 0 && len(counts) != len(tuples) {
		return fmt.Errorf("band run returned %d counts for %d tuples", len(counts), len(tuples))
	}
	seen := make(map[string]bool, len(tuples))
	for i, t := range tuples {
		k := tupleKey(t)
		want, ok := e.counts[k]
		if !ok {
			return fmt.Errorf("tuple %v is not in the ground-truth band", t)
		}
		if seen[k] {
			return fmt.Errorf("tuple %v discovered twice", t)
		}
		seen[k] = true
		if e.band > 0 && counts[i] != want {
			return fmt.Errorf("tuple %v: band count %d, ground truth %d", t, counts[i], want)
		}
	}
	return nil
}

// checkMembers compares only which tuples were discovered (a job status
// carries no band counts).
func (e expected) checkMembers(tuples [][]int) error {
	e.band = 0
	return e.check(tuples, nil, true)
}
