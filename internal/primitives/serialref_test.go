package primitives

// The serial reference for the sample sort — the pre-parallel coordinator
// sort over an array-of-structs record view — and the bridge that stages
// its records into the columnar set. Test-only: the parity, fuzz and
// benchmark tests compare sortAndChop against it.

import (
	"encoding/binary"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// rec is the array-of-structs record view the serial reference sorts: a
// key, a tie-break tag (d-side records sort before x-side records of the
// same key), and the carried item.
type rec struct {
	key string
	tag uint8
	it  mpc.Item
}

// recLess is the record order of every skew-sensitive primitive: by key,
// ties broken by tag. recCols.less is the columnar form; the serial
// reference and the parallel sample sort must agree on it exactly.
func recLess(a, b rec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.tag < b.tag
}

// chop is chopBounds over a []rec slice, returning chunk windows.
func chop(c *mpc.Cluster, recs []rec) [][]rec {
	bounds := chopBounds(c, len(recs))
	chunks := make([][]rec, c.P)
	for s := 0; s < c.P; s++ {
		if bounds[s] < bounds[s+1] {
			chunks[s] = recs[bounds[s]:bounds[s+1]]
		}
	}
	return chunks
}

// serialSortAndChopRef is the pre-parallel coordinator sort, kept verbatim
// as the parity, fuzz and benchmark reference: sortAndChop must produce
// value-identical chunks and identical charges at every data-plane width
// and with the record pool on or off.
func serialSortAndChopRef(c *mpc.Cluster, recs []rec) [][]rec {
	sort.SliceStable(recs, func(i, j int) bool { return recLess(recs[i], recs[j]) })
	return chop(c, recs)
}

// append adds one record from an encoded key string — the bridge that
// stages records from the array-of-structs rec view into the columns. The
// key decodes (relation.EncodeValues' inverse, in place: the allocation
// ceiling tests stage through here) to exactly the value window appendKeyed
// would have written.
func (rc *recCols) append(key string, tag uint8, t relation.Tuple, a int64) {
	if len(key)%8 != 0 {
		panic("primitives: malformed record key")
	}
	rc.adoptKeyWidth(len(key) / 8)
	for i := 0; i < len(key); i += 8 {
		rc.keys = append(rc.keys, relation.Value(binary.BigEndian.Uint64([]byte(key[i:i+8]))^(1<<63)))
	}
	rc.tags = append(rc.tags, tag)
	rc.tuples = append(rc.tuples, t)
	rc.annots = append(rc.annots, a)
}
