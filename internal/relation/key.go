package relation

import "encoding/binary"

// Key encoding: joins and shuffles need a comparable, hashable key derived
// from a tuple's projection onto a set of attributes. We encode each value
// as 8 big-endian bytes packed into a string. Big-endian keeps byte-wise
// ordering consistent with numeric ordering for non-negative values, which
// the sort-based primitives rely on.

// EncodeValues encodes the given values into a key string.
func EncodeValues(vals ...Value) string {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(v)^(1<<63))
	}
	return string(buf)
}

// EncodeTuple encodes the whole tuple as a key.
func EncodeTuple(t Tuple) string { return EncodeValues(t...) }

// KeyAt encodes the projection of t onto the given positions.
func KeyAt(t Tuple, pos []int) string {
	buf := make([]byte, 8*len(pos))
	for i, p := range pos {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(t[p])^(1<<63))
	}
	return string(buf)
}
