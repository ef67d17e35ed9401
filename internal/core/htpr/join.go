package htpr

import (
	"cmp"
	"slices"

	"github.com/hypertester/hypertester/internal/core/compiler"
)

// CPU-side query post-processing. Sonata's operator set includes join on
// top of filter/map/reduce/distinct; HyperTester partitions such operators
// to the switch CPU (§5.2: "HyperTester runs all the CPU logic within
// switch CPU"). These helpers implement that CPU stage over collected
// reports.

// JoinedResult pairs the aggregates of two queries for one key.
type JoinedResult struct {
	Key   []uint64
	Left  uint64
	Right uint64
}

// Join inner-joins two result sets on their full key tuples. Keys present
// in only one side are dropped (use LeftJoin to keep them).
func Join(left, right []Result) []JoinedResult {
	idx := indexValues(right)
	var kb []byte
	var out []JoinedResult
	for _, l := range left {
		kb = compiler.AppendKey(kb[:0], l.Key)
		if rv, ok := idx[string(kb)]; ok {
			out = append(out, JoinedResult{Key: l.Key, Left: l.Value, Right: rv})
		}
	}
	return out
}

// LeftJoin keeps every left key; missing right values are zero.
func LeftJoin(left, right []Result) []JoinedResult {
	idx := indexValues(right)
	var kb []byte
	out := make([]JoinedResult, 0, len(left))
	for _, l := range left {
		kb = compiler.AppendKey(kb[:0], l.Key)
		out = append(out, JoinedResult{Key: l.Key, Left: l.Value, Right: idx[string(kb)]})
	}
	return out
}

// indexValues maps each result's encoded key to its value (the last one
// wins).
func indexValues(results []Result) map[string]uint64 {
	idx := make(map[string]uint64, len(results))
	var kb []byte
	for _, r := range results {
		kb = compiler.AppendKey(kb[:0], r.Key)
		idx[string(kb)] = r.Value
	}
	return idx
}

// TopK returns the k largest results by value (ties broken by key order for
// determinism). The input is not modified.
func TopK(results []Result, k int) []Result {
	sorted := make([]Result, len(results))
	copy(sorted, results)
	slices.SortFunc(sorted, func(a, b Result) int {
		if c := cmp.Compare(b.Value, a.Value); c != 0 {
			return c
		}
		return slices.Compare(a.Key, b.Key)
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// SumValues totals a result set (the scalar a keyless reduce reports).
func SumValues(results []Result) uint64 {
	var total uint64
	for _, r := range results {
		total += r.Value
	}
	return total
}
