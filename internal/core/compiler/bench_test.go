package compiler

import (
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/raceflag"
)

// flowcountSpace is a per-5-tuple count over a SYN sweep of a /16 source
// range × 15 source ports: 983,040 distinct five-field tuples, the header
// space of the repository benchmark's flowcount-1m workload.
const flowcountSpace = 1 << 16 * 15

// flowcountQuery compiles the sweep with enumeration capped at one tuple
// (so setup skips the passes under test) and returns the query plan and
// templates the benchmarks re-enumerate at full size.
func flowcountQuery(b *testing.B) (*QueryPlan, []*Template) {
	b.Helper()
	task, err := ntapi.Parse("flowcount", `
T1 = trigger()
    .set([dip, dport, proto, flag], [10.9.0.1, 80, tcp, SYN])
    .set(sip, range(167772160, 167837695, 1))
    .set(sport, range(2000, 2014, 1))
    .set(port, 0)
Q1 = query(T1).reduce(func=count)
`)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(task, Options{MaxHeaderSpace: 1})
	if err != nil {
		b.Fatal(err)
	}
	return prog.Queries[0], prog.Templates
}

func reportPerTuple(b *testing.B, tuples int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tuples), "ns/tuple")
}

// BenchmarkExactKeySpace measures the compile pass behind a reduce query:
// the streamed header space and its exact keys. The result must equal the
// exact keys over the materialised, deduplicated space.
func BenchmarkExactKeySpace(b *testing.B) {
	plan, templates := flowcountQuery(b)
	tuples, _ := headerSpace(plan, templates, flowcountSpace)
	want := ComputeExactKeys(tuples, plan.ArraySize, plan.DigestBits, plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size, exact, truncated := exactKeySpace(plan, templates, Options{}.withDefaults().MaxHeaderSpace)
		if size != flowcountSpace || truncated {
			b.Fatalf("header space = %d (truncated %v), want %d", size, truncated, flowcountSpace)
		}
		if !slices.EqualFunc(exact, want, slices.Equal[[]uint64]) {
			b.Fatalf("%d exact keys, want %d (or they differ)", len(exact), len(want))
		}
	}
	reportPerTuple(b, flowcountSpace)
}

// BenchmarkHeaderSpace measures header-space enumeration through the dedup
// set, the path spaces of several templates or repeating lists take.
func BenchmarkHeaderSpace(b *testing.B) {
	plan, templates := flowcountQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples, truncated := headerSpace(plan, templates, Options{}.withDefaults().MaxHeaderSpace)
		if len(tuples) != flowcountSpace || truncated {
			b.Fatalf("header space = %d (truncated %v), want %d", len(tuples), truncated, flowcountSpace)
		}
	}
	reportPerTuple(b, flowcountSpace)
}

// BenchmarkComputeExactKeys measures the false-positive precomputation
// over the enumerated space.
func BenchmarkComputeExactKeys(b *testing.B) {
	plan, templates := flowcountQuery(b)
	tuples, _ := headerSpace(plan, templates, flowcountSpace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeExactKeys(tuples, plan.ArraySize, plan.DigestBits, plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
	}
	reportPerTuple(b, flowcountSpace)
}

// TestCuckooSlotsZeroAllocs pins the per-frame contract of the slot
// computation the runtime counter table shares with the compiler: the
// digest bytes hashed for the alternate slot stay on the stack.
func TestCuckooSlotsZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	h1 := asic.NewHashUnit("a1", asic.PolyCRC32)
	halt := asic.NewHashUnit("alt", asic.PolyCRC32C)
	hd := asic.NewHashUnit("d", asic.PolyKoopman)
	key := EncodeKey([]uint64{0x0a000001, 0x0a090001, 6, 2000, 80})
	sink := 0
	avg := testing.AllocsPerRun(1000, func() {
		idx1, idx2, d := CuckooSlots(key, 1<<14, 16, h1, hd, halt)
		sink += idx1 + idx2 + AltSlot(idx2, d, 1<<14, halt)
	})
	if avg != 0 {
		t.Fatalf("CuckooSlots+AltSlot allocate %v allocs/op, want 0", avg)
	}
}
