package compiler

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/ntapi"
)

// This file keeps the straightforward implementations the compile passes
// replaced — a single-table exact-key claim and a map-based header-space
// dedup — as differential oracles for the partitioned, map-free and
// streaming ones.

// refComputeExactKeys claims every key's two (slot, digest) cells in key
// order in one table over the whole header space.
func refComputeExactKeys(tuples [][]uint64, arraySize, digestBits int, polyA1, polyA2, polyDigest uint32) [][]uint64 {
	h1 := asic.NewHashUnit("fp-a1", polyA1)
	halt := asic.NewHashUnit("fp-alt", polyA2)
	hd := asic.NewHashUnit("fp-digest", polyDigest)

	tableSize := 16
	for tableSize < 4*len(tuples) {
		tableSize <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(tableSize)))
	mask := uint64(tableSize - 1)
	set := make([]uint64, tableSize)
	// claim records c if absent and reports whether it was already present.
	claim := func(c uint64) bool {
		h := (c * 0x9e3779b97f4a7c15) >> shift
		for {
			switch set[h] {
			case 0:
				set[h] = c
				return false
			case c:
				return true
			}
			h = (h + 1) & mask
		}
	}

	var out [][]uint64
	var kbuf []byte
	for _, t := range tuples {
		kbuf = AppendKey(kbuf[:0], t)
		idx1, idx2, d := CuckooSlots(kbuf, arraySize, digestBits, h1, hd, halt)
		taken := claim(uint64(uint32(idx1))<<32 | uint64(d))
		if claim(uint64(uint32(idx2))<<32|uint64(d)) || taken {
			out = append(out, t)
		}
	}
	return out
}

// refHeaderSpace enumerates templates one at a time, deduplicating tuples
// in a map keyed by their encoded bytes.
func refHeaderSpace(plan *QueryPlan, templates []*Template, cap int) (tuples [][]uint64, truncated bool) {
	seen := map[string]bool{}
	for _, tmpl := range templates {
		if plan.Egress && tmpl.ID != plan.SentTemplateID {
			continue
		}
		if refEnumerateTemplate(plan, tmpl, cap, seen, &tuples) {
			return tuples, true
		}
	}
	return tuples, false
}

func refEnumerateTemplate(plan *QueryPlan, tmpl *Template, cap int, seen map[string]bool, out *[][]uint64) (truncated bool) {
	base := asic.NewPHV(tmpl.Packet.Clone())
	var seqGens, randGens []gen
	period := uint64(1)
	for ki, kf := range plan.Keys {
		src := kf
		if !plan.Egress {
			src = reverseField(kf)
		}
		for mi := range tmpl.Mods {
			m := &tmpl.Mods[mi]
			if !fieldMatches(src, m.Field) {
				continue
			}
			switch m.Kind {
			case ModList, ModProgression:
				seqGens = append(seqGens, gen{ki, m})
				period = lcm(period, m.StreamLen())
			case ModRandom:
				randGens = append(randGens, gen{ki, m})
			}
			break
		}
	}
	if period > uint64(cap) {
		period = uint64(cap)
		truncated = true
	}
	randValues := make([][]uint64, len(randGens))
	for i, g := range randGens {
		dup := map[uint64]bool{}
		for _, v := range g.mod.InvTable {
			if !dup[v] {
				dup[v] = true
				randValues[i] = append(randValues[i], v)
			}
		}
	}
	tuple := make([]uint64, len(plan.Keys))
	for ki, kf := range plan.Keys {
		src := kf
		if !plan.Egress {
			src = reverseField(kf)
		}
		tuple[ki] = src.Get(base)
	}

	var emit func(ri int) bool
	emit = func(ri int) bool {
		if ri < len(randGens) {
			for _, v := range randValues[ri] {
				tuple[randGens[ri].key] = v
				if emit(ri + 1) {
					return true
				}
			}
			return false
		}
		k := string(EncodeKey(tuple))
		if seen[k] {
			return false
		}
		if len(seen) >= cap {
			return true
		}
		seen[k] = true
		*out = append(*out, slices.Clone(tuple))
		return false
	}
	for pktID := uint64(0); pktID < period; pktID++ {
		for _, g := range seqGens {
			tuple[g.key] = g.mod.ValueAt(pktID)
		}
		if emit(0) {
			return true
		}
	}
	return truncated
}

// randomTuples draws n tuples of width w from a value range small enough
// that duplicates occur.
func randomTuples(rng *rand.Rand, n, w int, span uint64) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, w)
		for j := range out[i] {
			out[i][j] = rng.Uint64() % span
		}
	}
	return out
}

func TestComputeExactKeysMatchesSingleTable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	polys := [][3]uint32{
		{asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman},
		{asic.PolyQ, asic.PolyKoopman, asic.PolyCRC32C},
	}
	// 1<<30 slots force more partitions than the cell count calls for, so
	// that each key index fits beside its cell.
	for _, arraySize := range []int{16, 64, 1 << 10, 1 << 12, 1 << 16, 1 << 30} {
		for _, digestBits := range []int{8, 16, 32} {
			for _, n := range []int{0, 1, 300, 20_000, 100_000} {
				tuples := randomTuples(rng, n, 1+rng.Intn(5), 1<<uint(8+rng.Intn(24)))
				// Exact duplicates: the copy always collides with the original.
				for i := 0; i < n/50; i++ {
					tuples = append(tuples, tuples[rng.Intn(n)])
				}
				p := polys[rng.Intn(len(polys))]
				got := ComputeExactKeys(tuples, arraySize, digestBits, p[0], p[1], p[2])
				want := refComputeExactKeys(tuples, arraySize, digestBits, p[0], p[1], p[2])
				if !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
					t.Fatalf("arraySize %d digest %d n %d: %d exact keys, oracle %d (or order differs)",
						arraySize, digestBits, len(tuples), len(got), len(want))
				}
			}
		}
	}
}

// TestComputeExactKeysSelfCollision drives keys whose two candidate slots
// coincide (idx1 == idx2, which the alternate-slot hash produces when it
// maps the digest to zero under the mask), the case where a key's second
// cell collides with its own first one.
func TestComputeExactKeysSelfCollision(t *testing.T) {
	h1 := asic.NewHashUnit("a1", asic.PolyCRC32)
	halt := asic.NewHashUnit("alt", asic.PolyCRC32C)
	hd := asic.NewHashUnit("d", asic.PolyKoopman)
	const arraySize, digestBits = 16, 8
	rng := rand.New(rand.NewSource(73))
	var tuples [][]uint64
	self := 0
	for len(tuples) < 4000 {
		tu := []uint64{rng.Uint64(), rng.Uint64() & 0xffff}
		idx1, idx2, _ := CuckooSlots(EncodeKey(tu), arraySize, digestBits, h1, hd, halt)
		if idx1 == idx2 {
			self++
		}
		tuples = append(tuples, tu)
	}
	if self == 0 {
		t.Fatal("no key with idx1 == idx2 drawn; the case is not exercised")
	}
	got := ComputeExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	want := refComputeExactKeys(tuples, arraySize, digestBits, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	if !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
		t.Fatalf("%d exact keys, oracle %d (or order differs)", len(got), len(want))
	}
}

// headerSpaceFields are the template-packet fields the differential test
// keys on and generates.
var headerSpaceFields = []asic.Field{
	asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldIPv4Proto, asic.FieldL4SrcPort,
	asic.FieldL4DstPort, asic.FieldIPv4TTL, asic.FieldIPv4TOS, asic.FieldIPv4ID,
	asic.FieldTCPSeq, asic.FieldTCPWindow,
}

// randomMod builds a modification of field drawing values from a small
// alphabet, so lists and random tables repeat values and templates share
// tuples.
func randomMod(rng *rand.Rand, field asic.Field) FieldMod {
	values := func(n int) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(rng.Intn(4))
		}
		return vs
	}
	switch rng.Intn(5) {
	case 0:
		return FieldMod{Field: field, Kind: ModList, List: values(1 + rng.Intn(6))}
	case 1:
		start := uint64(rng.Intn(3))
		return FieldMod{Field: field, Kind: ModProgression, Start: start,
			End: start + uint64(rng.Intn(6)), Step: uint64(1 + rng.Intn(2))}
	case 2:
		return FieldMod{Field: field, Kind: ModRandom, InvTable: values(1 + rng.Intn(8))}
	case 3:
		return FieldMod{Field: field, Kind: ModConst, Const: uint64(rng.Intn(4))}
	default:
		return FieldMod{Field: field, Kind: ModFromRecord, RecordField: field}
	}
}

// randomHeaderSpaceProgram builds a plan keyed on width fields and 1–3
// templates cloned from base, each generating a random subset of the
// (direction-adjusted) key fields.
func randomHeaderSpaceProgram(rng *rand.Rand, base *Template, width int) (*QueryPlan, []*Template) {
	polys := []uint32{asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman, asic.PolyQ}
	plan := &QueryPlan{Egress: rng.Intn(2) == 0, SentTemplateID: 1,
		ArraySize: 1 << uint(2+rng.Intn(4)), DigestBits: []int{4, 8, 16, 32}[rng.Intn(4)],
		PolyArray1: polys[rng.Intn(4)], PolyArray2: polys[rng.Intn(4)], PolyDigest: polys[rng.Intn(4)]}
	for _, i := range rng.Perm(len(headerSpaceFields))[:width] {
		plan.Keys = append(plan.Keys, headerSpaceFields[i])
	}
	var templates []*Template
	for id := 1; id <= 1+rng.Intn(3); id++ {
		tmpl := &Template{ID: id, Packet: base.Packet}
		for _, kf := range plan.Keys {
			src := kf
			if !plan.Egress {
				src = reverseField(kf)
			}
			switch src {
			case asic.FieldL4SrcPort:
				src = asic.FieldTCPSrcPort
			case asic.FieldL4DstPort:
				src = asic.FieldTCPDstPort
			}
			if rng.Intn(3) > 0 {
				tmpl.Mods = append(tmpl.Mods, randomMod(rng, src))
			}
		}
		templates = append(templates, tmpl)
	}
	return plan, templates
}

// hsBaseTemplate compiles a constant 5-tuple TCP trigger whose packet the
// header-space tests clone templates from.
func hsBaseTemplate(t *testing.T) *Template {
	t.Helper()
	task := ntapi.NewTask("hs")
	task.Trigger().
		Set("sip", ntapi.IP("1.1.0.1")).Set("dip", ntapi.IP("9.9.9.9")).
		Set("proto", ntapi.Const(6)).Set("sport", ntapi.Const(1000)).Set("dport", ntapi.Const(80)).
		WithPorts(0)
	prog, err := Compile(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Templates[0]
}

// checkSpaceAgainstOracle compares headerSpace and the streaming
// exactKeySpace with the map-based header space and the single-table claim
// at caps around the space's size (as enumerated up to the cap large) and
// at large, reporting whether the space takes the streaming path.
func checkSpaceAgainstOracle(t *testing.T, name string, plan *QueryPlan, templates []*Template, large int) (streamed bool) {
	t.Helper()
	full, _ := refHeaderSpace(plan, templates, large)
	size := len(full)
	spaces := templateSpaces(plan, templates, large)
	streamed = len(spaces) == 1 && spaces[0].injective()
	for _, cap := range []int{max(1, size-1), size, size + 1, large} {
		if cap == 0 {
			continue
		}
		want, wantTrunc := refHeaderSpace(plan, templates, cap)
		got, gotTrunc := headerSpace(plan, templates, cap)
		if gotTrunc != wantTrunc || !slices.EqualFunc(got, want, slices.Equal[[]uint64]) {
			t.Fatalf("%s cap %d: %d tuples truncated=%v, oracle %d truncated=%v",
				name, cap, len(got), gotTrunc, len(want), wantTrunc)
		}
		var wantExact [][]uint64
		if !wantTrunc {
			wantExact = refComputeExactKeys(want, plan.ArraySize, plan.DigestBits,
				plan.PolyArray1, plan.PolyArray2, plan.PolyDigest)
		}
		gotSize, gotExact, gotTrunc := exactKeySpace(plan, templates, cap)
		if gotSize != len(want) || gotTrunc != wantTrunc || (gotExact == nil) != wantTrunc ||
			!slices.EqualFunc(gotExact, wantExact, slices.Equal[[]uint64]) {
			t.Fatalf("%s cap %d: exactKeySpace size %d truncated=%v %d exact keys, oracle size %d truncated=%v %d exact keys",
				name, cap, gotSize, gotTrunc, len(gotExact), len(want), wantTrunc, len(wantExact))
		}
	}
	return streamed
}

func TestHeaderSpaceMatchesMapDedup(t *testing.T) {
	base := hsBaseTemplate(t)
	rng := rand.New(rand.NewSource(79))
	nonTrivial, streamed := 0, 0
	for _, width := range []int{1, 4, 5, 7} {
		for trial := 0; trial < 150; trial++ {
			plan, templates := randomHeaderSpaceProgram(rng, base, width)
			full, _ := refHeaderSpace(plan, templates, 1<<20)
			if len(full) > 1 {
				nonTrivial++
			}
			if checkSpaceAgainstOracle(t, fmt.Sprintf("width %d trial %d", width, trial), plan, templates, 1<<20) && len(full) > 1 {
				streamed++
			}
		}
	}
	if nonTrivial < 300 {
		t.Fatalf("only %d programs had more than one tuple; the generator is too narrow", nonTrivial)
	}
	if streamed < 50 {
		t.Fatalf("only %d non-trivial programs took the streaming path", streamed)
	}
}

// TestExactKeySpaceCases pins the streaming pass and its dedup fallback on
// the shapes that decide between them: value lists with and without
// repeats, random generators, several overlapping templates, ingress
// (reversed) keys, and spaces large enough to produce exact keys.
func TestExactKeySpaceCases(t *testing.T) {
	base := hsBaseTemplate(t)
	seq := func(n int, step uint64) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = 0x0a000000 + step*uint64(i)
		}
		return vs
	}
	list := func(f asic.Field, vs ...uint64) FieldMod { return FieldMod{Field: f, Kind: ModList, List: vs} }
	prog := func(f asic.Field, start, end, step uint64) FieldMod {
		return FieldMod{Field: f, Kind: ModProgression, Start: start, End: end, Step: step}
	}
	random := func(f asic.Field, vs ...uint64) FieldMod { return FieldMod{Field: f, Kind: ModRandom, InvTable: vs} }
	tmpl := func(id int, mods ...FieldMod) *Template { return &Template{ID: id, Packet: base.Packet, Mods: mods} }
	fiveTuple := []asic.Field{asic.FieldIPv4Src, asic.FieldIPv4Dst, asic.FieldIPv4Proto, asic.FieldL4SrcPort, asic.FieldL4DstPort}
	plan := func(egress bool) *QueryPlan {
		return &QueryPlan{Egress: egress, SentTemplateID: 1, Keys: fiveTuple, ArraySize: 1 << 8, DigestBits: 8,
			PolyArray1: asic.PolyCRC32, PolyArray2: asic.PolyCRC32C, PolyDigest: asic.PolyKoopman}
	}
	cases := []struct {
		name      string
		plan      *QueryPlan
		templates []*Template
		streamed  bool
	}{
		{"distinct list x progression", plan(true), []*Template{
			tmpl(1, list(asic.FieldIPv4Src, seq(40, 7)...), prog(asic.FieldTCPSrcPort, 2000, 2014, 1))}, true},
		{"list with repeats", plan(true), []*Template{
			tmpl(1, list(asic.FieldIPv4Src, 1, 2, 3, 2, 1, 9), prog(asic.FieldTCPSrcPort, 10, 30, 5))}, false},
		{"list repeats hidden by a coprime progression", plan(true), []*Template{
			tmpl(1, list(asic.FieldIPv4Src, 5, 5), prog(asic.FieldTCPSrcPort, 1, 3, 1))}, false},
		{"random generators", plan(true), []*Template{
			tmpl(1, random(asic.FieldIPv4Dst, 4, 4, 8, 15, 16, 23, 42, 8), prog(asic.FieldTCPDstPort, 1, 100, 3),
				random(asic.FieldIPv4Proto, 6, 17, 6))}, true},
		{"period clamped by the cap", plan(true), []*Template{
			tmpl(1, prog(asic.FieldIPv4Src, 0, 1<<15, 1))}, true},
		{"empty value list", plan(true), []*Template{
			tmpl(1, list(asic.FieldIPv4Src), prog(asic.FieldTCPSrcPort, 1, 9, 1))}, true},
		{"sent query ignores other templates", plan(true), []*Template{
			tmpl(1, prog(asic.FieldIPv4Src, 100, 1100, 1)), tmpl(2, prog(asic.FieldIPv4Src, 100, 1100, 1))}, true},
		{"two overlapping templates", plan(false), []*Template{
			tmpl(1, prog(asic.FieldIPv4Dst, 100, 1100, 1)), tmpl(2, prog(asic.FieldIPv4Dst, 600, 1600, 2))}, false},
		{"three overlapping templates", plan(false), []*Template{
			tmpl(1, prog(asic.FieldIPv4Dst, 1, 300, 1), list(asic.FieldTCPDstPort, 7, 8)),
			tmpl(2, random(asic.FieldIPv4Dst, seq(50, 1)...)),
			tmpl(3, prog(asic.FieldIPv4Dst, 100, 700, 3), prog(asic.FieldTCPDstPort, 7, 9, 1))}, false},
		{"ingress reversed fields", plan(false), []*Template{
			tmpl(1, prog(asic.FieldIPv4Dst, 1, 3000, 1), list(asic.FieldTCPDstPort, 80, 443, 8080),
				prog(asic.FieldIPv4Src, 7, 7, 0))}, true},
	}
	for _, c := range cases {
		if got := checkSpaceAgainstOracle(t, c.name, c.plan, c.templates, 1<<14); got != c.streamed {
			t.Fatalf("%s: streamed=%v, want %v", c.name, got, c.streamed)
		}
	}
}

// TestSpaceHashMatchesCuckooSlots checks the XOR-table hashing against the
// runtime's CuckooSlots over encoded keys, for every polynomial in each
// role, digest widths 8/16/32 and key widths 1–7, with full 64-bit values
// so every byte of every field carries.
func TestSpaceHashMatchesCuckooSlots(t *testing.T) {
	polys := []uint32{asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman, asic.PolyQ}
	rng := rand.New(rand.NewSource(89))
	values := func(n int) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = rng.Uint64()
		}
		return vs
	}
	for width := 1; width <= 7; width++ {
		for _, digestBits := range []int{8, 16, 32} {
			for pi := range polys {
				p1, pa, pd := polys[pi], polys[(pi+1)%4], polys[(pi+2+width)%4]
				sp := &templateSpace{base: values(width), period: 1}
				for ki := 0; ki < width; ki++ {
					switch rng.Intn(3) {
					case 0:
						m := &FieldMod{Kind: ModList, List: values(1 + rng.Intn(5))}
						sp.seqGens = append(sp.seqGens, gen{ki, m})
						sp.period = lcm(sp.period, m.StreamLen())
					case 1:
						m := &FieldMod{Kind: ModRandom, InvTable: values(1 + rng.Intn(4))}
						sp.randGens = append(sp.randGens, gen{ki, m})
						sp.randValues = append(sp.randValues, m.InvTable)
					}
				}
				const arraySize = 1 << 10
				h1, halt, hd := asic.NewHashUnit("a1", p1), asic.NewHashUnit("alt", pa), asic.NewHashUnit("d", pd)
				hs := newSpaceHash(sp, width, h1, hd)
				// Both alternate-slot paths: computed per key, and the
				// per-digest table for narrow digests.
				for _, ch := range []*cellHasher{newCellHasher(arraySize, digestBits, 0, halt),
					newCellHasher(arraySize, digestBits, 1<<16, halt)} {
					pos := uint64(0)
					tu := make([]uint64, width)
					cells := make([]uint64, 2*claimBlock)
					hs.sweep(sp.period, func(sums []uint64) {
						ch.fill(cells, sums)
						for i := range sums {
							sp.tupleAt(pos, tu)
							c1, c2 := cells[2*i], cells[2*i+1]
							idx1, idx2, d := CuckooSlots(EncodeKey(tu), arraySize, digestBits, h1, hd, halt)
							if c1 != uint64(idx1)<<32|uint64(d) || c2 != uint64(idx2)<<32|uint64(d) {
								t.Fatalf("width %d digest %d polys %#x/%#x/%#x key %v: cells %#x %#x, CuckooSlots (%d, %d, %#x)",
									width, digestBits, p1, pa, pd, tu, c1, c2, idx1, idx2, d)
							}
							pos++
						}
					})
					if want := uint64(sp.bound(1 << 30)); pos != want {
						t.Fatalf("sweep emitted %d keys, want %d", pos, want)
					}
				}
			}
		}
	}
}

// TestComputeExactKeysWidthsMatchesPerWidth checks the shared-hash pass
// against one ComputeExactKeys call per digest width.
func TestComputeExactKeysWidthsMatchesPerWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tuples := randomTuples(rng, 60_000, 3, 1<<20)
	widths := []int{16, 32, 8}
	got := ComputeExactKeysWidths(tuples, 1<<12, widths, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
	for w, db := range widths {
		want := refComputeExactKeys(tuples, 1<<12, db, asic.PolyCRC32, asic.PolyCRC32C, asic.PolyKoopman)
		if len(want) == 0 || !slices.EqualFunc(got[w], want, slices.Equal[[]uint64]) {
			t.Fatalf("digest %d: %d exact keys, oracle %d (or order differs)", db, len(got[w]), len(want))
		}
	}
}

// TestTupleSetDedups fills a set to its bound with tuples that repeat,
// checking every lookup against a map.
func TestTupleSetDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tuples := randomTuples(rng, 5000, 3, 64)
	s := newTupleSet(len(tuples))
	want := map[string]bool{}
	for _, tu := range tuples {
		h := hashTuple(tu)
		slot, found := s.find(tu, h)
		k := string(EncodeKey(tu))
		if found != want[k] {
			t.Fatalf("find(%v) = %v, want %v", tu, found, want[k])
		}
		if !found {
			s.insert(slot, h, tu)
			want[k] = true
		}
	}
	if len(s.tuples) != len(want) {
		t.Fatalf("%d distinct tuples kept, want %d", len(s.tuples), len(want))
	}
}

// TestTupleSetComparesTuples looks up a tuple under another tuple's hash:
// a matching tag must not stand in for an equal tuple.
func TestTupleSetComparesTuples(t *testing.T) {
	s := newTupleSet(1)
	a, b := []uint64{1, 2, 3}, []uint64{1, 2, 4}
	slot, _ := s.find(a, hashTuple(a))
	s.insert(slot, hashTuple(a), a)
	if _, found := s.find(b, hashTuple(a)); found {
		t.Fatal("a different tuple with the same hash was reported present")
	}
	if _, found := s.find(a, hashTuple(a)); !found {
		t.Fatal("inserted tuple not found")
	}
}
