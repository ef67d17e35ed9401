// Package htpr implements the HyperTester Packet Receiver (§5.2): compiled
// packet-stream queries with the false-positive-free counter-based
// algorithm — partial-key cuckoo hashing over two register arrays, a KV
// FIFO whose entries are drained by recirculated template packets, exact
// key matching for the precomputed collisions, and eviction of old entries
// to the switch CPU.
package htpr

import (
	"slices"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// CounterTable is the data-plane structure behind one reduce or distinct
// query. The arrays store (digest, counter) in registers; full keys are
// never stored on the data plane. KV-FIFO records carry (primary slot,
// digest, count) — under partial-key cuckoo hashing that is sufficient to
// place and relocate entries without knowing the key. Key labels are
// control-plane bookkeeping only: the switch CPU can reconstruct key↔cell
// mappings because the header space is known (§5.2); they label results and
// never influence data-plane behaviour.
//
// Evicted entries take one route to the switch CPU: they are queued on the
// table, the receiver attaches the oldest to each passing packet as an
// encoded generate_digest message, and the CPU folds the messages into the
// table's one CPU-side aggregate (MergeEviction); Collect folds whatever is
// still queued into the same aggregate.
type CounterTable struct {
	plan *compiler.QueryPlan

	h1, hd, halt *asic.HashUnit

	// arr[0] is array 1 (indexed by primary slot), arr[1] array 2.
	arr [2]cuckooArray

	// kvFIFO buffers entries awaiting cuckoo insertion by a recirculated
	// template packet (Figure 5). Record layout: slot1, digest, count.
	kvFIFO *stateless.FIFO
	kvRec  []uint64 // DrainOne's pop buffer

	// keyDir labels cells for the CPU: (primary slot, digest) -> key (a
	// keys reference) of the first KV-FIFO push of that pair. Among
	// non-exact keys the pair is unique by construction (colliding keys
	// were moved to the exact table), and the CPU can always rebuild it
	// because the header space is known (§5.2). Entries persist for the
	// task's lifetime.
	keyDir map[uint64]int32

	// exact holds the precomputed colliding keys' dedicated counters in
	// plan order; exactIdx maps an encoded key to its position.
	exact    []exactEntry
	exactIdx map[string]int

	// evictions queues evicted entries until a packet carries one to the
	// switch CPU as a digest message (nextDigest) or Collect drains them.
	// digestFree recycles consumed message buffers; recycle returns one
	// and is bound once, so installing it as a PHV's DigestFree does not
	// allocate.
	evictions  entryFIFO
	digestFree [][]byte
	recycle    func([]byte)

	// cpu is the switch-CPU aggregate of evicted entries, one per key in
	// first-merge order.
	cpu []entry

	// keys stores each key the labels, keyDir and the CPU aggregate name,
	// once, as [width, cpu, key words...], where cpu is 1 + the key's
	// position in the CPU aggregate (0: the CPU holds none of it). A key
	// is referenced by the offset of its width word; offset 0 is a
	// placeholder, so reference 0 means "no key". refs maps an encoded key
	// to its reference. The store holds no pointers, so the garbage
	// collector never scans it.
	keys []uint64
	refs map[string]int32

	// Statistics.
	// Unattributed counts aggregate value the CPU could not map back to
	// a key (should stay zero; exported for verification).
	Unattributed uint64
	Updates      uint64
	ExactHits    uint64
	FIFOPushes   uint64
	FIFODrains   uint64
	Evictions    uint64 // entries reported out to the CPU
	FIFODrops    uint64 // KV-FIFO overflow (the §6.1 limitation)

	maxRelocate int

	// kbuf holds an encoded key for one map lookup, reused across calls.
	kbuf []byte
}

// cuckooArray is one of the table's two cuckoo arrays: its digest, count
// and touch registers plus the key labels that shadow them.
type cuckooArray struct {
	digest, count *asic.RegisterArray
	// touch records the Updates clock of each cell's last hit, so the CPU
	// can sweep out idle entries ("evict the old analysis states and upload
	// them to the switch CPU", §3.1).
	touch *asic.RegisterArray
	// labels shadows the registers slot for slot with the key (a keys
	// reference) of the entry held there; 0 marks a cell without a label.
	labels []int32
}

func newCuckooArray(n string, size int) cuckooArray {
	return cuckooArray{
		digest: asic.NewRegisterArray("ct-digest"+n, size),
		count:  asic.NewRegisterArray("ct-count"+n, size),
		touch:  asic.NewRegisterArray("ct-touch"+n, size),
		labels: make([]int32, size),
	}
}

// Observe binds the table's six register arrays to a trace stream so every
// SALU access during query processing emits a salu record.
func (ct *CounterTable) Observe(clock *netsim.Sim, tr *obs.Trace) {
	for i := range ct.arr {
		a := &ct.arr[i]
		a.digest.Observe(clock, tr)
		a.count.Observe(clock, tr)
		a.touch.Observe(clock, tr)
	}
}

type exactEntry struct {
	key   []uint64
	count uint64
	seen  bool
}

// entry is a key (a keys reference) with an aggregate.
type entry struct {
	key   int32
	value uint64
}

// entryFIFO queues entries with slot reuse: popping advances a head index
// instead of reslicing, so the backing array is reused once drained rather
// than pinned by a [1:] chain.
type entryFIFO struct {
	q    []entry
	head int
}

func (f *entryFIFO) len() int { return len(f.q) - f.head }

func (f *entryFIFO) push(e entry) { f.q = append(f.q, e) }

func (f *entryFIFO) pop() entry {
	e := f.q[f.head]
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return e
}

// kvLayout: slot1, digest, count (register-file FIFO reuse).
var kvLayout = []asic.Field{asic.FieldNone, asic.FieldNone, asic.FieldNone}

// NewCounterTable builds the runtime structure for a reduce/distinct plan.
func NewCounterTable(plan *compiler.QueryPlan) *CounterTable {
	ct := &CounterTable{
		plan:        plan,
		h1:          asic.NewHashUnit("ct-a1", plan.PolyArray1),
		halt:        asic.NewHashUnit("ct-alt", plan.PolyArray2),
		hd:          asic.NewHashUnit("ct-digest", plan.PolyDigest),
		arr:         [2]cuckooArray{newCuckooArray("1", plan.ArraySize), newCuckooArray("2", plan.ArraySize)},
		kvFIFO:      stateless.New("kv-fifo", kvLayout, 1024),
		keyDir:      make(map[uint64]int32),
		exactIdx:    make(map[string]int, len(plan.ExactKeys)),
		keys:        []uint64{0},
		refs:        make(map[string]int32),
		maxRelocate: 8,
	}
	ct.recycle = ct.recycleDigest
	for _, k := range plan.ExactKeys {
		kb := string(compiler.EncodeKey(k))
		if _, dup := ct.exactIdx[kb]; !dup {
			ct.exactIdx[kb] = len(ct.exact)
			ct.exact = append(ct.exact, exactEntry{key: append([]uint64(nil), k...)})
		}
	}
	return ct
}

func pendingID(slot1 int, digest uint32) uint64 {
	return uint64(slot1)<<32 | uint64(digest)
}

// ref returns the reference of key, whose encoding is kb, storing the key
// on first use. It is never 0, not even for the empty key of a keyless
// query.
func (ct *CounterTable) ref(key []uint64, kb []byte) int32 {
	if ref, ok := ct.refs[string(kb)]; ok {
		return ref
	}
	ref := int32(len(ct.keys))
	if need := 2 + len(key); cap(ct.keys)-len(ct.keys) < need {
		// Double the store: append alone grows a large slice by 1.25×,
		// which would copy it about five times over.
		ct.keys = slices.Grow(ct.keys, len(ct.keys)+need)
	}
	ct.keys = append(append(ct.keys, uint64(len(key)), 0), key...)
	ct.refs[string(kb)] = ref
	return ref
}

// key returns the stored key ref references. The slice aliases the store.
func (ct *CounterTable) key(ref int32) []uint64 {
	end := int(ref) + 2 + int(ct.keys[ref])
	return ct.keys[ref+2 : end : end]
}

// Update processes one packet's key with a value delta. For distinct
// queries the aggregate saturates at 1 (insert-if-new). It returns the
// post-update aggregate for the key, which post-reduce filters evaluate.
// The table keeps no reference to key.
func (ct *CounterTable) Update(key []uint64, delta uint64) uint64 {
	ct.Updates++
	ct.kbuf = compiler.AppendKey(ct.kbuf[:0], key)
	kb := ct.kbuf

	// Exact key matching first: precomputed collisions resolve here and
	// never touch the hashed arrays (Figure 4).
	if i, ok := ct.exactIdx[string(kb)]; ok {
		ct.ExactHits++
		e := &ct.exact[i]
		e.count = ct.agg(e.count, delta, !e.seen)
		e.seen = true
		return e.count
	}

	idx1, idx2, d := compiler.CuckooSlots(kb, ct.plan.ArraySize, ct.plan.DigestBits, ct.h1, ct.hd, ct.halt)
	slots := [2]int{idx1, idx2}

	// Hit in either array?
	for i := range ct.arr {
		a, s := &ct.arr[i], slots[i]
		if a.digest.Read(s) == uint64(d) {
			nv := ct.agg(a.count.Read(s), delta, false)
			a.count.Write(s, nv)
			a.touch.Write(s, ct.Updates)
			return nv
		}
	}
	// Miss: new key. Insert into an empty candidate slot if available.
	first := ct.agg(0, delta, true)
	for i := range ct.arr {
		a, s := &ct.arr[i], slots[i]
		if a.digest.Read(s) == 0 {
			a.digest.Write(s, uint64(d))
			a.count.Write(s, first)
			a.touch.Write(s, ct.Updates)
			a.labels[s] = ct.ref(key, kb)
			return first
		}
	}
	// Both candidate slots occupied: queue the KV pair for a recirculated
	// template packet to place (Figure 5b).
	if ct.kvFIFO.Push([]uint64{uint64(idx1), uint64(d), first}) {
		ct.FIFOPushes++
		if _, dup := ct.keyDir[pendingID(idx1, d)]; !dup {
			ct.keyDir[pendingID(idx1, d)] = ct.ref(key, kb)
		}
	} else {
		// FIFO overflow: report straight to the switch CPU (§6.1).
		ct.FIFODrops++
		ct.evict(ct.ref(key, kb), first)
	}
	return first
}

// agg folds a packet's delta into an aggregate.
func (ct *CounterTable) agg(old, delta uint64, isNew bool) uint64 {
	if ct.plan.Kind == ntapi.KindDistinct {
		return 1
	}
	switch ct.plan.Func {
	case ntapi.AggSum:
		return old + delta
	case ntapi.AggCount:
		return old + 1
	case ntapi.AggMax:
		if isNew || delta > old {
			return delta
		}
		return old
	case ntapi.AggMin:
		if isNew || delta < old {
			return delta
		}
		return old
	}
	return old + 1
}

// merge folds two partial aggregates of the same key together.
func (ct *CounterTable) merge(a, b uint64) uint64 {
	if ct.plan.Kind == ntapi.KindDistinct {
		return 1
	}
	switch ct.plan.Func {
	case ntapi.AggMax:
		if b > a {
			return b
		}
		return a
	case ntapi.AggMin:
		if a == 0 || b < a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// label returns the key reference of the entry with digest d at slot of
// array i: the slot's label or, for a cell placed without one, the key
// directory's entry for its (primary slot, digest) — partial-key cuckoo
// makes the primary slot computable from the cell alone. 0 means unknown.
func (ct *CounterTable) label(i, slot int, d uint64) int32 {
	if ref := ct.arr[i].labels[slot]; ref != 0 {
		return ref
	}
	if i == 1 {
		slot = compiler.AltSlot(slot, uint32(d), ct.plan.ArraySize, ct.halt)
	}
	return ct.keyDir[pendingID(slot, uint32(d))]
}

// DrainOne performs one FIFO pop and cuckoo insertion — the work a
// recirculated template packet does per pass (Figure 5). It reports whether
// anything was drained.
func (ct *CounterTable) DrainOne() bool {
	rec, ok := ct.kvFIFO.Pop(ct.kvRec[:0])
	if !ok {
		return false
	}
	ct.kvRec = rec
	ct.FIFODrains++
	slot1, d, cnt := int(rec[0]), uint32(rec[1]), rec[2]
	slots := [2]int{slot1, compiler.AltSlot(slot1, d, ct.plan.ArraySize, ct.halt)}

	// If the key is already placed (by Update or an earlier drain), merge.
	for i := range ct.arr {
		a, s := &ct.arr[i], slots[i]
		if a.digest.Read(s) == uint64(d) {
			a.count.Write(s, ct.merge(a.count.Read(s), cnt))
			return true
		}
	}

	// Insert at the primary slot, relocating occupants along their
	// alternate-slot chains (bounded, like a pipeline pass). A label moves
	// exactly as its digest and count do.
	shadow := ct.keyDir[pendingID(slot1, d)]
	slot, digest, count := slot1, d, cnt
	i := 0
	for hop := 0; hop < ct.maxRelocate; hop++ {
		a := &ct.arr[i]
		oldD := a.digest.Read(slot)
		oldC := a.count.Read(slot)
		var oldShadow int32
		if oldD != 0 {
			oldShadow = ct.label(i, slot, oldD)
		}
		a.digest.Write(slot, uint64(digest))
		a.count.Write(slot, count)
		a.labels[slot] = shadow
		if oldD == 0 {
			return true // placed in an empty slot
		}
		// The evicted occupant moves to its alternate slot (computable
		// from slot + digest alone).
		digest, count, shadow = uint32(oldD), oldC, oldShadow
		slot = compiler.AltSlot(slot, digest, ct.plan.ArraySize, ct.halt)
		i = 1 - i
	}
	// Relocation budget exhausted: report the carried entry to the CPU
	// (the "old KV pair evicted" path of Figure 5d).
	ct.evict(shadow, count)
	return true
}

// evict queues the entry with key reference ref for the switch CPU. An
// entry whose key is unknown (ref 0) only adds its value to Unattributed.
func (ct *CounterTable) evict(ref int32, value uint64) {
	ct.Evictions++
	if ref == 0 {
		ct.Unattributed += value
		return
	}
	ct.evictions.push(entry{ref, value})
}

// nextDigest dequeues the oldest queued eviction and encodes it as a
// generate_digest message, in a recycled buffer when one is free. Call it
// only while evictions are queued.
func (ct *CounterTable) nextDigest() []byte {
	e := ct.evictions.pop()
	var buf []byte
	if n := len(ct.digestFree); n > 0 {
		buf = ct.digestFree[n-1][:0]
		ct.digestFree[n-1] = nil
		ct.digestFree = ct.digestFree[:n-1]
	}
	return AppendEviction(buf, ct.plan.ID, ct.key(e.key), e.value)
}

// recycleDigest returns a consumed message buffer to the freelist: the ASIC
// calls it once it has copied the message onto the digest channel, or
// dropped the PHV unconsumed.
func (ct *CounterTable) recycleDigest(b []byte) {
	if b != nil {
		ct.digestFree = append(ct.digestFree, b)
	}
}

// MergeEviction is the switch-CPU side of eviction reporting: it folds one
// decoded eviction into the table's CPU aggregate. key is copied when the
// table first stores it.
func (ct *CounterTable) MergeEviction(key []uint64, value uint64) {
	ct.kbuf = compiler.AppendKey(ct.kbuf[:0], key)
	ct.mergeCPU(entry{ct.ref(key, ct.kbuf), value})
}

// mergeCPU folds an evicted entry into the CPU aggregate.
func (ct *CounterTable) mergeCPU(e entry) {
	if pos := ct.keys[e.key+1]; pos != 0 {
		ct.cpu[pos-1].value = ct.merge(ct.cpu[pos-1].value, e.value)
		return
	}
	ct.cpu = append(ct.cpu, entry{e.key, ct.merge(0, e.value)})
	ct.keys[e.key+1] = uint64(len(ct.cpu))
}

// SweepIdle is the control-plane aging pass: every occupied cell whose last
// touch is older than maxAge updates is uploaded to the CPU and freed,
// keeping the on-chip arrays available for active flows (§3.1's "evict the
// old analysis states"). It returns the number of evicted entries.
func (ct *CounterTable) SweepIdle(maxAge uint64) int {
	evicted := 0
	for i := range ct.arr {
		a := &ct.arr[i]
		for slot := range a.labels {
			d := a.digest.Read(slot)
			if d == 0 || ct.Updates-a.touch.Read(slot) <= maxAge {
				continue
			}
			ct.evict(ct.label(i, slot, d), a.count.Read(slot))
			a.digest.Write(slot, 0)
			a.count.Write(slot, 0)
			a.labels[slot] = 0
			evicted++
		}
	}
	return evicted
}

// Result is one key's aggregate in a collected report.
type Result struct {
	Key   []uint64
	Value uint64
}

// Collect assembles the per-key report the switch CPU builds from batched
// pulls plus eviction digests. It first lets the KV FIFO drain completely
// and folds the evictions still queued on the data plane into the CPU
// aggregate. The report lists exact keys in plan order, then array-1 cells
// by slot, then array-2 cells by slot, each with the CPU's partial
// aggregate of its key merged in, and last the keys only the CPU holds, in
// merge order. A key has at most one home on the data plane (DESIGN.md
// §14), so no key is listed twice. The result keys share one block of
// their own, so a kept report does not pin the table's key store.
func (ct *CounterTable) Collect() []Result {
	for ct.DrainOne() {
	}
	for ct.evictions.len() > 0 {
		ct.mergeCPU(ct.evictions.pop())
	}
	// Every reported key is exact or stored, and nearly every stored key
	// is reported.
	out := make([]Result, 0, len(ct.exact)+len(ct.refs))
	merged := make([]bool, len(ct.cpu))
	words := 0
	add := func(key []uint64, v uint64) {
		out = append(out, Result{Key: key, Value: v})
		words += len(key)
	}
	// Exact keys never reach the arrays, so the CPU holds none of them.
	for i := range ct.exact {
		if e := &ct.exact[i]; e.seen {
			add(e.key, ct.merge(0, e.count))
		}
	}
	for i := range ct.arr {
		a := &ct.arr[i]
		for slot, ref := range a.labels {
			if ref == 0 || a.digest.Read(slot) == 0 {
				continue
			}
			v := ct.merge(0, a.count.Read(slot))
			if pos := ct.keys[ref+1]; pos != 0 {
				v = ct.merge(v, ct.cpu[pos-1].value)
				merged[pos-1] = true
			}
			add(ct.key(ref), v)
		}
	}
	for i, e := range ct.cpu {
		if !merged[i] {
			add(ct.key(e.key), e.value)
		}
	}
	block := make([]uint64, 0, words)
	for i := range out {
		n := len(block)
		block = append(block, out[i].Key...)
		out[i].Key = block[n:len(block):len(block)]
	}
	return out
}
