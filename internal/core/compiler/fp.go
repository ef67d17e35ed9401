package compiler

import (
	"encoding/binary"
	"math/bits"

	"github.com/hypertester/hypertester/internal/asic"
)

// CuckooSlots computes a key's two candidate slots and its stored digest
// under partial-key cuckoo hashing (Fan et al., the paper's [70]): the
// alternate slot derives from the primary slot and the digest alone, so the
// data plane can relocate an entry knowing only what the cell stores.
// arraySize must be a power of two.
//
// This function is the single source of truth shared by the compiler's
// false-positive precomputation and the runtime's counter table — they must
// agree bit-for-bit or precomputed exact entries would not cover runtime
// collisions.
func CuckooSlots(key []byte, arraySize, digestBits int, h1, hd, halt *asic.HashUnit) (idx1, idx2 int, digest uint32) {
	mask := arraySize - 1
	digest = hd.Digest(key, digestBits)
	if digest == 0 {
		digest = 1 // zero marks an empty cell
	}
	idx1 = int(h1.Sum(key)) & mask
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], digest)
	idx2 = (idx1 ^ int(halt.Sum(db[:]))) & mask
	return idx1, idx2, digest
}

// AltSlot returns the other candidate slot for an entry, from the slot it
// occupies and its digest — the relocation step of partial-key cuckoo.
func AltSlot(idx int, digest uint32, arraySize int, halt *asic.HashUnit) int {
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], digest)
	return (idx ^ int(halt.Sum(db[:]))) & (arraySize - 1)
}

// ComputeExactKeys finds the key tuples that would collide in the runtime's
// counter table — a candidate slot and stored digest equal to an earlier
// key's — and therefore need entries in the exact-key-matching table to keep
// reduce/distinct free of false positives (§5.2, Fig. 17).
//
// For each colliding pair only the later key needs an exact entry: lookups
// for it would otherwise hit the earlier key's (slot, digest) cell.
//
// Formally, lay out both cells of every key in key order, c1₀, c2₀, c1₁,
// c2₁, …; key i needs an exact entry iff c1ᵢ or c2ᵢ equals a cell at an
// earlier position (c2ᵢ may equal c1ᵢ itself, when idx1 == idx2). Equal
// cells share a slot, so a stable partition of the sequence by the slot's
// high bits keeps every run of equal cells in one partition and in
// sequence order: claiming each partition on its own, in a table small
// enough to stay in cache, marks exactly the keys one table over the whole
// sequence would.
func ComputeExactKeys(tuples [][]uint64, arraySize, digestBits int, polyA1, polyA2, polyDigest uint32) [][]uint64 {
	h1 := asic.NewHashUnit("fp-a1", polyA1)
	halt := asic.NewHashUnit("fp-alt", polyA2)
	hd := asic.NewHashUnit("fp-digest", polyDigest)

	// Partition the slot space into 2^partBits ranges of equal width,
	// aiming at ~partCells cells per partition. At most 4,096 partitions
	// keep the scatter's write streams few, and there are never more
	// partitions than slots.
	const partCells = 4096
	slotBits := bits.Len(uint(arraySize - 1))
	partBits := min(bits.Len(uint(2*len(tuples)/partCells)), slotBits, 12)
	partShift := uint(slotBits - partBits)
	counts := make([]int, 1<<partBits)

	// Pass 1: both (slot, digest) cells of every key, packed slot<<32 |
	// digest, with a histogram of their partitions. CuckooSlots never
	// returns digest 0, so a packed cell is never 0.
	cells := make([]uint64, 2*len(tuples))
	kbuf := make([]byte, 0, 64)
	for i, t := range tuples {
		kbuf = AppendKey(kbuf[:0], t)
		idx1, idx2, d := CuckooSlots(kbuf, arraySize, digestBits, h1, hd, halt)
		cells[2*i] = uint64(uint32(idx1))<<32 | uint64(d)
		cells[2*i+1] = uint64(uint32(idx2))<<32 | uint64(d)
		counts[idx1>>partShift]++
		counts[idx2>>partShift]++
	}

	// Pass 2: stable counting-sort scatter of (cell, position) by
	// partition. counts[p] starts as partition p's offset and ends as
	// its end, which is partition p+1's offset.
	largest, offset := 0, 0
	for p, n := range counts {
		largest = max(largest, n)
		counts[p] = offset
		offset += n
	}
	sorted := make([]uint64, len(cells))
	pos := make([]uint32, len(cells))
	for j, c := range cells {
		p := c >> 32 >> partShift
		sorted[counts[p]] = c
		pos[counts[p]] = uint32(j)
		counts[p]++
	}

	// Pass 3: claim each partition's cells in order in an open-addressed
	// table sized for <=50% load, probed linearly from a Fibonacci-mixed
	// home slot; 0 marks an empty probe slot.
	set := make([]uint64, tableSizeFor(largest))
	needExact := make([]bool, len(tuples))
	need, lo := 0, 0
	for _, hi := range counts {
		size := tableSizeFor(hi - lo)
		table := set[:size]
		clear(table)
		shift := uint(64 - bits.TrailingZeros(uint(size)))
		mask := uint64(size - 1)
		for j := lo; j < hi; j++ {
			c := sorted[j]
			h := (c * 0x9e3779b97f4a7c15) >> shift
			for table[h] != 0 && table[h] != c {
				h = (h + 1) & mask
			}
			if table[h] == 0 {
				table[h] = c
				continue
			}
			if k := pos[j] / 2; !needExact[k] {
				needExact[k] = true
				need++
			}
		}
		lo = hi
	}

	out := make([][]uint64, 0, need)
	for i := range tuples {
		if needExact[i] {
			out = append(out, tuples[i])
		}
	}
	return out
}

// tableSizeFor returns the power-of-two open-addressing table size (at
// least 16) that holds n entries at <=50% load.
func tableSizeFor(n int) int {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return size
}

// EncodeKey serializes a key tuple into hash-input bytes, the canonical
// form shared by the compiler's precomputation and the runtime's lookups.
func EncodeKey(t []uint64) []byte {
	return AppendKey(make([]byte, 0, 8*len(t)), t)
}

// AppendKey appends t's canonical hash-input encoding to dst and returns the
// extended slice, letting hot loops reuse one buffer across keys.
func AppendKey(dst []byte, t []uint64) []byte {
	for _, v := range t {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}
