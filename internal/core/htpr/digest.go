package htpr

import (
	"encoding/binary"
	"fmt"
)

// Digest-message codec for push-mode eviction reporting (§5.2: "report the
// KV pairs to the switch CPU via generate_digest"). A message carries the
// query ID, the key tuple and the partial aggregate; the switch CPU decodes
// and merges it. Messages ride the rate-limited digest channel, so heavy
// eviction churn genuinely consumes the Fig. 16a budget.

// evictionMagic guards against decoding foreign digest messages.
const evictionMagic = 0x4855 // "HU"

// AppendEviction serializes one evicted entry into dst, reusing its capacity
// — the allocation-free form used by the receiver's pooled digest path.
func AppendEviction(dst []byte, queryID int, key []uint64, value uint64) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint16(hdr[0:2], evictionMagic)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(queryID))
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(key)))
	dst = append(dst, hdr[:6]...)
	var v [8]byte
	for _, k := range key {
		binary.BigEndian.PutUint64(v[:], k)
		dst = append(dst, v[:]...)
	}
	binary.BigEndian.PutUint64(v[:], value)
	dst = append(dst, v[:]...)
	return dst
}

// DecodeEviction parses a message produced by AppendEviction, appending the
// key tuple to dst.
func DecodeEviction(msg []byte, dst []uint64) (queryID int, key []uint64, value uint64, err error) {
	if len(msg) < 6 {
		return 0, nil, 0, fmt.Errorf("htpr: digest message too short")
	}
	if binary.BigEndian.Uint16(msg[0:2]) != evictionMagic {
		return 0, nil, 0, fmt.Errorf("htpr: not an eviction digest")
	}
	queryID = int(binary.BigEndian.Uint16(msg[2:4]))
	n := int(binary.BigEndian.Uint16(msg[4:6]))
	want := 6 + 8*n + 8
	if len(msg) != want {
		return 0, nil, 0, fmt.Errorf("htpr: eviction digest length %d, want %d", len(msg), want)
	}
	key = dst
	for i := 0; i < n; i++ {
		key = append(key, binary.BigEndian.Uint64(msg[6+8*i:]))
	}
	value = binary.BigEndian.Uint64(msg[6+8*n:])
	return queryID, key, value, nil
}
