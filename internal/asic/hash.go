package asic

import "encoding/binary"

// Hash units. Tofino pipelines compute hashes with CRC engines whose
// polynomial is selectable per unit; HyperTester's cuckoo arrays and flow
// digests need several independent functions over the same key bytes. We
// implement reflected CRC-32 with a configurable polynomial, truncated to
// the requested width — the same family the hardware offers.

// HashUnit is one configured CRC engine. table[0] is the classic
// byte-at-a-time table; table[k][b] is the CRC state after feeding byte b
// followed by k zero bytes, which lets Sum fold eight input bytes per step
// (slicing-by-8).
type HashUnit struct {
	name  string
	table [8][256]uint32
}

// Standard polynomials (reflected form) available to pipelines.
const (
	PolyCRC32   = 0xEDB88320 // CRC-32 (Ethernet)
	PolyCRC32C  = 0x82F63B78 // CRC-32C (Castagnoli)
	PolyKoopman = 0xEB31D82E // CRC-32K
	PolyQ       = 0xD5828281 // CRC-32Q (reflected)
)

// NewHashUnit builds a CRC engine for the given reflected polynomial.
func NewHashUnit(name string, poly uint32) *HashUnit {
	h := &HashUnit{name: name}
	for i := range h.table[0] {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		h.table[0][i] = crc
	}
	for k := 1; k < len(h.table); k++ {
		for i := range h.table[k] {
			prev := h.table[k-1][i]
			h.table[k][i] = prev>>8 ^ h.table[0][byte(prev)]
		}
	}
	return h
}

// Sum computes the CRC of data: eight bytes per step, then four, then a
// byte loop for the tail. The result equals the byte-at-a-time CRC for
// every polynomial; hash/crc32 is not used because it only accelerates
// IEEE and Castagnoli, and passing key buffers through it moves callers'
// stack arrays to the heap.
func (h *HashUnit) Sum(data []byte) uint32 {
	t := &h.table
	crc := ^uint32(0)
	for len(data) >= 8 {
		lo := crc ^ binary.LittleEndian.Uint32(data)
		hi := binary.LittleEndian.Uint32(data[4:])
		crc = t[7][byte(lo)] ^ t[6][byte(lo>>8)] ^ t[5][byte(lo>>16)] ^ t[4][lo>>24] ^
			t[3][byte(hi)] ^ t[2][byte(hi>>8)] ^ t[1][byte(hi>>16)] ^ t[0][hi>>24]
		data = data[8:]
	}
	if len(data) >= 4 {
		lo := crc ^ binary.LittleEndian.Uint32(data)
		crc = t[3][byte(lo)] ^ t[2][byte(lo>>8)] ^ t[1][byte(lo>>16)] ^ t[0][lo>>24]
		data = data[4:]
	}
	for _, b := range data {
		crc = t[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// Index hashes data into [0, buckets).
func (h *HashUnit) Index(data []byte, buckets int) int {
	return int(h.Sum(data) % uint32(buckets))
}

// Digest hashes data down to width bits (1..32), the partial-key digest the
// counter-based algorithm stores instead of full keys (§5.2).
func (h *HashUnit) Digest(data []byte, width int) uint32 {
	if width >= 32 {
		return h.Sum(data)
	}
	return h.Sum(data) & (1<<uint(width) - 1)
}
