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
	idx2 = (idx1 ^ int(altSum(digest, halt))) & mask
	return idx1, idx2, digest
}

// AltSlot returns the other candidate slot for an entry, from the slot it
// occupies and its digest — the relocation step of partial-key cuckoo.
func AltSlot(idx int, digest uint32, arraySize int, halt *asic.HashUnit) int {
	return (idx ^ int(altSum(digest, halt))) & (arraySize - 1)
}

// ComputeExactKeys finds the key tuples that would collide in the runtime's
// counter table — a candidate slot and stored digest equal to an earlier
// key's — and therefore need entries in the exact-key-matching table to keep
// reduce/distinct free of false positives (§5.2, Fig. 17).
//
// For each colliding pair only the later key needs an exact entry: lookups
// for it would otherwise hit the earlier key's (slot, digest) cell.
func ComputeExactKeys(tuples [][]uint64, arraySize, digestBits int, polyA1, polyA2, polyDigest uint32) [][]uint64 {
	return ComputeExactKeysWidths(tuples, arraySize, []int{digestBits}, polyA1, polyA2, polyDigest)[0]
}

// ComputeExactKeysWidths is ComputeExactKeys for several digest widths at
// once, element w of the result holding the exact keys under
// digestBits[w]. Every key is hashed once: the slot CRC is shared, and a
// narrower digest is the low bits of the same digest CRC.
func ComputeExactKeysWidths(tuples [][]uint64, arraySize int, digestBits []int, polyA1, polyA2, polyDigest uint32) [][][]uint64 {
	h1 := asic.NewHashUnit("fp-a1", polyA1)
	halt := asic.NewHashUnit("fp-alt", polyA2)
	hd := asic.NewHashUnit("fp-digest", polyDigest)

	sums := make([]uint64, len(tuples))
	kbuf := make([]byte, 0, 64)
	for i, t := range tuples {
		kbuf = AppendKey(kbuf[:0], t)
		sums[i] = keySums(kbuf, h1, hd)
	}
	out := make([][][]uint64, len(digestBits))
	for w, db := range digestBits {
		ch := newCellHasher(arraySize, db, len(tuples), halt)
		marked := claimCells(len(tuples), ch, func(yield func(sums []uint64)) { yield(sums) })
		keys := make([][]uint64, 0, len(marked))
		for _, i := range marked {
			keys = append(keys, tuples[i])
		}
		out[w] = keys
	}
	return out
}

// keySums packs the two CRCs CuckooSlots takes over a key's bytes, the slot
// hash and the digest hash, as h1.Sum<<32 | hd.Sum.
func keySums(key []byte, h1, hd *asic.HashUnit) uint64 {
	return uint64(h1.Sum(key))<<32 | uint64(hd.Sum(key))
}

// cellHasher finishes CuckooSlots from a key's packed keySums: fill writes
// the key's two (slot, digest) cells, packed slot<<32 | digest, which is
// never 0 because the digest never is.
type cellHasher struct {
	slotMask, digestMask uint32
	halt                 *asic.HashUnit
	// alt caches halt's hash of every digest value, for digests of at most
	// 16 bits hashed for more keys than there are digest values.
	alt []uint32
}

func newCellHasher(arraySize, digestBits, keys int, halt *asic.HashUnit) *cellHasher {
	ch := &cellHasher{slotMask: uint32(arraySize - 1), digestMask: ^uint32(0), halt: halt}
	if digestBits < 32 {
		ch.digestMask = 1<<uint(digestBits) - 1
	}
	if digestBits >= 1 && digestBits <= 16 && keys >= 1<<uint(digestBits) {
		ch.alt = make([]uint32, 1<<uint(digestBits))
		for d := range ch.alt {
			ch.alt[d] = altSum(uint32(d), halt)
		}
	}
	return ch
}

// fill writes both cells of the key with packed sums[i] to cells[2i] and
// cells[2i+1].
func (ch *cellHasher) fill(cells, sums []uint64) {
	cells = cells[:2*len(sums)]
	for i, s := range sums {
		d := uint32(s) & ch.digestMask
		if d == 0 {
			d = 1 // zero marks an empty cell
		}
		var alt uint32
		if ch.alt != nil {
			alt = ch.alt[d]
		} else {
			alt = altSum(d, ch.halt)
		}
		idx1 := uint32(s>>32) & ch.slotMask
		idx2 := (idx1 ^ alt) & ch.slotMask
		cells[2*i] = uint64(idx1)<<32 | uint64(d)
		cells[2*i+1] = uint64(idx2)<<32 | uint64(d)
	}
}

// altSum is the alternate-slot hash of a digest, over its big-endian bytes.
func altSum(digest uint32, halt *asic.HashUnit) uint32 {
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], digest)
	return halt.Sum(db[:])
}

// claimBlock is the number of keys whose cells claimCells computes at a
// time: enough to amortise a call per block, few enough to stay in cache.
const claimBlock = 1024

// claimCells returns, in increasing order, the positions of the n keys that
// need exact entries in ch's counter table. keySums calls yield with the
// packed keySums of every key, in key order and in blocks of any size;
// claimCells calls it twice, so it must replay the same sequence.
//
// Formally, lay out both cells of every key in key order, c1₀, c2₀, c1₁,
// c2₁, …; key i needs an exact entry iff c1ᵢ or c2ᵢ equals a cell at an
// earlier position (c2ᵢ may equal c1ᵢ itself, when idx1 == idx2). Equal
// cells share a slot, so a stable partition of the sequence by the slot's
// high bits keeps every run of equal cells in one partition and in
// sequence order: claiming each partition on its own, in a table small
// enough to stay in cache, marks exactly the keys one table over the whole
// sequence would.
func claimCells(n int, ch *cellHasher, keySums func(yield func(sums []uint64))) []int {
	// Partition the slot space into 2^partBits ranges of equal width,
	// aiming at ~partCells cells per partition. At most 4,096 partitions
	// keep the scatter's write streams few, unless more are needed for a
	// cell's key to fit beside it (below), and there are never more
	// partitions than slots.
	const partCells = 4096
	slotBits := bits.Len32(ch.slotMask)
	keyBits := bits.Len(uint(n))
	partBits := min(max(min(bits.Len(uint(2*n/partCells)), 12), slotBits+keyBits-32), slotBits)
	partShift := uint(32 + slotBits - partBits)
	// Within a partition a cell's slot bits from partShift up are
	// implied, which leaves those bits free for the index of the cell's
	// key: partShift+keyBits <= 64 by the choice of partBits.
	cellMask := uint64(1)<<partShift - 1

	// cellBlocks replays the key stream as blocks of cells c1₀, c2₀, ….
	buf := make([]uint64, 2*claimBlock)
	cellBlocks := func(visit func(cells []uint64)) {
		keySums(func(sums []uint64) {
			for len(sums) > 0 {
				k := min(len(sums), claimBlock)
				ch.fill(buf, sums[:k])
				visit(buf[:2*k])
				sums = sums[k:]
			}
		})
	}

	// Pass 1: a histogram of the cells' partitions.
	counts := make([]int, 1<<partBits)
	cellBlocks(func(cells []uint64) {
		for _, c := range cells {
			counts[c>>partShift]++
		}
	})

	// Pass 2: stable counting-sort scatter of key<<partShift | cell by
	// partition. counts[p] starts as partition p's offset and ends as its
	// end, which is partition p+1's offset.
	largest, offset := 0, 0
	for p, c := range counts {
		largest = max(largest, c)
		counts[p] = offset
		offset += c
	}
	sorted := make([]uint64, 2*n)
	j := uint64(0)
	cellBlocks(func(cells []uint64) {
		for _, c := range cells {
			p := c >> partShift
			sorted[counts[p]] = j>>1<<partShift | c&cellMask
			counts[p]++
			j++
		}
	})

	// Pass 3: claim each partition's cells in order in an open-addressed
	// table sized for <=50% load, probed linearly from a Fibonacci-mixed
	// home slot; 0 marks an empty probe slot.
	set := make([]uint64, tableSizeFor(largest))
	needExact := make([]bool, n)
	need, lo := 0, 0
	for _, hi := range counts {
		size := tableSizeFor(hi - lo)
		table := set[:size]
		clear(table)
		shift := uint(64 - bits.TrailingZeros(uint(size)))
		mask := uint64(size - 1)
		for j := lo; j < hi; j++ {
			c := sorted[j] & cellMask
			h := (c * 0x9e3779b97f4a7c15) >> shift
			for table[h] != 0 && table[h] != c {
				h = (h + 1) & mask
			}
			if table[h] == 0 {
				table[h] = c
				continue
			}
			if i := sorted[j] >> partShift; !needExact[i] {
				needExact[i] = true
				need++
			}
		}
		lo = hi
	}

	marked := make([]int, 0, need)
	for i, x := range needExact {
		if x {
			marked = append(marked, i)
		}
	}
	return marked
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
