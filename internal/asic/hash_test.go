package asic

import (
	"math/rand"
	"testing"
)

// refCRC is the byte-at-a-time reflected CRC-32 that HashUnit.Sum
// computed before slicing-by-8: the differential oracle for the fast path.
type refCRC [256]uint32

func newRefCRC(poly uint32) *refCRC {
	var r refCRC
	for i := range r {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		r[i] = crc
	}
	return &r
}

func (r *refCRC) sum(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = r[byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// TestHashSumMatchesByteAtATime checks slicing-by-8 Sum against the
// byte-at-a-time reference for every standard polynomial over random
// inputs of every length 0..80, so the 8-byte, 4-byte and byte-tail steps
// run in every combination (length 4 is the cuckoo digest input).
func TestHashSumMatchesByteAtATime(t *testing.T) {
	const inputs = 100_000
	rng := rand.New(rand.NewSource(41))
	buf := make([]byte, 80)
	for _, poly := range []uint32{PolyCRC32, PolyCRC32C, PolyKoopman, PolyQ} {
		h, ref := NewHashUnit("diff", poly), newRefCRC(poly)
		for i := 0; i < inputs; i++ {
			data := buf[:i%(len(buf)+1)]
			rng.Read(data)
			if got, want := h.Sum(data), ref.sum(data); got != want {
				t.Fatalf("poly %#x len %d: Sum = %#08x, byte-at-a-time = %#08x (input %x)",
					poly, len(data), got, want, data)
			}
		}
	}
}
