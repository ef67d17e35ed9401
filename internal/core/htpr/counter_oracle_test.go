package htpr

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// oracleCase is one randomized differential run.
type oracleCase struct {
	arraySize, digestBits, keyWidth int
	exact                           bool
	kind                            ntapi.QueryKind
	fn                              ntapi.AggFunc
	universe                        float64 // key universe / table capacity
	drainPct                        int     // share of steps that drain one KV-FIFO entry
	seed                            int64
}

func (c oracleCase) String() string {
	return fmt.Sprintf("size%d/d%d/w%d/exact=%v/%s-%s/x%.1f/drain%d%%/seed%d",
		c.arraySize, c.digestBits, c.keyWidth, c.exact, c.kind, c.fn, c.universe, c.drainPct, c.seed)
}

// oracleCases covers every dimension: array sizes 16–1024, digest widths
// 4/8/16, runs with and without exact keys, key universes 0.5×–30× the
// table's capacity, every aggregate, and drain rates low enough for the
// KV FIFO to overflow.
func oracleCases(n int) []oracleCase {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{16, 64, 256, 1024}
	bits := []int{4, 8, 16}
	universes := []float64{0.5, 1, 2, 5, 30}
	aggs := []struct {
		kind ntapi.QueryKind
		fn   ntapi.AggFunc
	}{
		{ntapi.KindReduce, ntapi.AggSum}, {ntapi.KindReduce, ntapi.AggCount},
		{ntapi.KindReduce, ntapi.AggMax}, {ntapi.KindReduce, ntapi.AggMin},
		{ntapi.KindDistinct, ntapi.AggCount},
	}
	var out []oracleCase
	for i := 0; i < n; i++ {
		a := aggs[i%len(aggs)]
		c := oracleCase{
			arraySize:  sizes[i%len(sizes)],
			digestBits: bits[i%len(bits)],
			keyWidth:   1 + rng.Intn(3),
			exact:      i%2 == 0,
			kind:       a.kind,
			fn:         a.fn,
			universe:   universes[rng.Intn(len(universes))],
			drainPct:   []int{1, 10, 28}[rng.Intn(3)],
			seed:       int64(i),
		}
		if i%5 == 4 { // a heavy overload that overflows the KV FIFO
			c.universe, c.drainPct = 30, 1
		}
		out = append(out, c)
	}
	return out
}

// TestCounterTableMatchesReference drives the counter table and the
// reference table of oracle_test.go with the same Update/DrainOne/SweepIdle
// sequence. After every step the two must have made the same SALU accesses
// (array, slot, value, in order) and agree on every return value, counter
// and KV-FIFO state; at checkpoints and at the end their registers must be
// equal and their Collect results equal as multisets.
func TestCounterTableMatchesReference(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	var overflowed, budgetEvicted, unlabelledMerges int
	for _, c := range oracleCases(n) {
		st := runOracleCase(t, c)
		if t.Failed() {
			t.Fatalf("%v: diverged from the reference", c)
		}
		if st.FIFODrops > 0 {
			overflowed++
		}
		if st.Evictions > st.FIFODrops+st.swept {
			budgetEvicted++
		}
		unlabelledMerges += st.collisions
	}
	t.Logf("%d runs: %d overflowed the KV FIFO, %d evicted on the relocation budget, %d key-directory collisions",
		n, overflowed, budgetEvicted, unlabelledMerges)
	// The runs must reach the paths the labels matter on.
	if overflowed == 0 || budgetEvicted == 0 || unlabelledMerges == 0 {
		t.Fatalf("coverage: %d runs overflowed the KV FIFO, %d evicted on the relocation budget, %d key-directory collisions; want all > 0",
			overflowed, budgetEvicted, unlabelledMerges)
	}
}

type oracleStats struct {
	FIFODrops, Evictions, swept uint64
	collisions                  int // keys whose (primary slot, digest) an earlier key already holds
}

func runOracleCase(t *testing.T, c oracleCase) oracleStats {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	plan := testPlan(c.kind, c.fn, c.arraySize, c.digestBits)
	plan.Keys = make([]asic.Field, c.keyWidth)
	var universe [][]uint64
	seen := map[string]bool{}
	for len(universe) < max(1, int(c.universe*float64(2*c.arraySize))) {
		k := make([]uint64, c.keyWidth)
		for j := range k {
			k[j] = rng.Uint64() >> uint(rng.Intn(64))
		}
		if kb := string(compiler.EncodeKey(k)); !seen[kb] {
			seen[kb] = true
			universe = append(universe, k)
		}
	}
	isExact := map[string]bool{}
	if c.exact {
		plan.ExactKeys = compiler.ComputeExactKeys(universe, plan.ArraySize, plan.DigestBits,
			plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
		for _, k := range plan.ExactKeys {
			isExact[string(compiler.EncodeKey(k))] = true
		}
	}
	var st oracleStats
	h1, hd, halt := asic.NewHashUnit("a", plan.PolyArray1), asic.NewHashUnit("d", plan.PolyDigest), asic.NewHashUnit("b", plan.PolyArray2)
	paired := map[uint64]bool{}
	for _, k := range universe {
		kb := compiler.EncodeKey(k)
		if isExact[string(kb)] {
			continue
		}
		idx1, _, d := compiler.CuckooSlots(kb, plan.ArraySize, plan.DigestBits, h1, hd, halt)
		if paired[pendingID(idx1, d)] {
			st.collisions++
		}
		paired[pendingID(idx1, d)] = true
	}

	sim := netsim.New()
	traces := obs.NewTraceSet()
	trNew, trRef := traces.New("new"), traces.New("ref")
	ct, ref := NewCounterTable(plan), newRefTable(plan)
	ct.Observe(sim, trNew)
	ref.Observe(sim, trRef)

	steps := min(6*len(universe), 6000)
	seenAccesses := 0
	for step := 0; step < steps; step++ {
		var op oracleOp
		switch r := rng.Intn(100); {
		case r >= c.drainPct+2:
			k := universe[rng.Intn(len(universe))]
			if rng.Intn(4) == 0 {
				k = universe[rng.Intn(min(len(universe), 8))] // a few hot keys
			}
			delta := uint64(rng.Intn(50))
			op = oracleOp{"Update", k, delta}
			if a, b := ct.Update(slices.Clone(k), delta), ref.Update(slices.Clone(k), delta); a != b {
				t.Errorf("step %d %v: returned %d, reference %d", step, op, a, b)
			}
		case r >= 2:
			op = oracleOp{name: "DrainOne"}
			if a, b := ct.DrainOne(), ref.DrainOne(); a != b {
				t.Errorf("step %d %v: returned %v, reference %v", step, op, a, b)
			}
		default:
			age := uint64(rng.Intn(4 * c.arraySize))
			op = oracleOp{name: "SweepIdle", arg: age}
			a, b := ct.SweepIdle(age), ref.SweepIdle(age)
			if a != b {
				t.Errorf("step %d %v: swept %d, reference %d", step, op, a, b)
			}
			st.swept += uint64(a)
		}
		seenAccesses = compareAccesses(t, trNew, trRef, seenAccesses, step, op)
		compareCounters(t, ct, ref, step, op)
		if t.Failed() {
			return st
		}
		if step%500 == 0 {
			compareRegisters(t, ct, ref, step)
		}
	}
	st.FIFODrops, st.Evictions = ct.FIFODrops, ct.Evictions
	got, want := ct.Collect(), ref.Collect()
	compareRegisters(t, ct, ref, steps)
	compareCounters(t, ct, ref, steps, oracleOp{name: "Collect"})
	if !reflect.DeepEqual(sortedResults(got), sortedResults(want)) {
		t.Errorf("Collect: %d results, reference %d; multisets differ", len(got), len(want))
	}
	return st
}

// oracleOp names a step for failure messages.
type oracleOp struct {
	name string
	key  []uint64
	arg  uint64
}

func (o oracleOp) String() string {
	switch o.name {
	case "Update":
		return fmt.Sprintf("Update(%v, %d)", o.key, o.arg)
	case "SweepIdle":
		return fmt.Sprintf("SweepIdle(%d)", o.arg)
	}
	return o.name
}

// compareAccesses checks, in order, the SALU records both tables emitted
// after the first `from`, and returns the new record count.
func compareAccesses(t *testing.T, a, b *obs.Trace, from, step int, op oracleOp) int {
	t.Helper()
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		t.Errorf("step %d %v: %d SALU accesses so far, reference %d", step, op, len(ra), len(rb))
		return len(ra)
	}
	for i := from; i < len(ra); i++ {
		if ra[i] != rb[i] {
			t.Errorf("step %d %v: access %d is %+v, reference %+v", step, op, i, ra[i], rb[i])
			break
		}
	}
	return len(ra)
}

func compareCounters(t *testing.T, ct *CounterTable, ref *refTable, step int, op oracleOp) {
	t.Helper()
	got := []uint64{ct.Unattributed, ct.Updates, ct.ExactHits, ct.FIFOPushes, ct.FIFODrains, ct.Evictions, ct.FIFODrops,
		uint64(ct.kvFIFO.Len()), ct.kvFIFO.Pushed, ct.kvFIFO.Popped, ct.kvFIFO.Overflows}
	want := []uint64{ref.Unattributed, ref.Updates, ref.ExactHits, ref.FIFOPushes, ref.FIFODrains, ref.Evictions, ref.FIFODrops,
		uint64(ref.kvFIFO.Len()), ref.kvFIFO.Pushed, ref.kvFIFO.Popped, ref.kvFIFO.Overflows}
	if !slices.Equal(got, want) {
		t.Errorf("step %d %v: counters (unattributed, updates, exact hits, pushes, drains, evictions, drops, fifo len/pushed/popped/overflows) %v, reference %v",
			step, op, got, want)
	}
}

func compareRegisters(t *testing.T, ct *CounterTable, ref *refTable, step int) {
	t.Helper()
	pairs := []struct{ a, b *asic.RegisterArray }{
		{ct.arr[0].digest, ref.digest1}, {ct.arr[0].count, ref.count1}, {ct.arr[0].touch, ref.touch1},
		{ct.arr[1].digest, ref.digest2}, {ct.arr[1].count, ref.count2}, {ct.arr[1].touch, ref.touch2},
	}
	for _, p := range pairs {
		n := p.a.Size()
		if !slices.Equal(p.a.Snapshot(0, n), p.b.Snapshot(0, n)) || p.a.Accesses != p.b.Accesses {
			t.Errorf("step %d: register %s differs from the reference (accesses %d vs %d)", step, p.a.Name, p.a.Accesses, p.b.Accesses)
		}
	}
}

func sortedResults(rs []Result) []Result {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b Result) int {
		if c := slices.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
	return out
}

// TestCollectOrderIsFixed drives two fresh tables identically: their
// reports must be equal element by element, order included, with exact
// keys first in plan order and CPU-only keys last.
func TestCollectOrderIsFixed(t *testing.T) {
	c := oracleCase{arraySize: 64, digestBits: 8, keyWidth: 1, exact: true, kind: ntapi.KindReduce, fn: ntapi.AggSum, universe: 5}
	run := func() (*CounterTable, []Result) {
		plan := testPlan(c.kind, c.fn, c.arraySize, c.digestBits)
		rng := rand.New(rand.NewSource(3))
		universe := make([][]uint64, int(c.universe*float64(2*c.arraySize)))
		for i := range universe {
			universe[i] = []uint64{rng.Uint64()}
		}
		plan.ExactKeys = compiler.ComputeExactKeys(universe, plan.ArraySize, plan.DigestBits,
			plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
		ct := NewCounterTable(plan)
		for i := 0; i < 4*len(universe); i++ {
			ct.Update(universe[rng.Intn(len(universe))], uint64(rng.Intn(9)))
			if i%3 == 0 {
				ct.DrainOne()
			}
		}
		return ct, ct.Collect()
	}
	ct, a := run()
	_, b := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs collected results in different orders")
	}
	if len(ct.exact) == 0 || len(ct.cpu) == 0 {
		t.Fatalf("%d exact keys, %d CPU-held keys: the run does not cover the report's first and last sections", len(ct.exact), len(ct.cpu))
	}
	i := 0
	for _, e := range ct.exact {
		if !e.seen {
			continue
		}
		if !slices.Equal(a[i].Key, e.key) {
			t.Fatalf("result %d is %v, want exact key %v (plan order)", i, a[i].Key, e.key)
		}
		i++
	}
	last := a[len(a)-1].Key
	inTable := false
	for i := range ct.arr {
		for _, ref := range ct.arr[i].labels {
			inTable = inTable || ref != 0 && slices.Equal(ct.key(ref), last)
		}
	}
	if inTable {
		t.Fatalf("last result %v is on the data plane; CPU-only keys come last", last)
	}
}
