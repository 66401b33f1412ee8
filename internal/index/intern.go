package index

import (
	"math"
)

// termInterner deduplicates term keys into a pool in first-seen order: an
// open-addressing table of pool references (ref+1; 0 is empty) hashed on
// the keys' bits. It agrees with a map[termEntry]uint32 exactly: keys
// compare with ==, so a +0 and a -0 sim are one key (the hash adds +0,
// which turns -0 into +0), and a NaN never equals itself, so each NaN
// entry gets a pool entry of its own.
type termInterner struct {
	pool  []termEntry
	slots []uint32
}

// newTermInterner sizes the table for hint distinct terms; it grows past
// that when needed.
func newTermInterner(hint int) termInterner {
	n := 8
	for n < 2*hint {
		n <<= 1
	}
	return termInterner{slots: make([]uint32, n)}
}

// hashTerms mixes a key's bits with splitmix64's finalizer.
func hashTerms(t termEntry) uint64 {
	h := math.Float64bits(t.sim+0)*0x9e3779b97f4a7c15 ^ uint64(uint32(t.node))<<32 ^ uint64(uint32(t.len))
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// intern returns t's pool reference, appending t on first sight.
func (ti *termInterner) intern(t termEntry) uint32 {
	mask := uint64(len(ti.slots) - 1)
	for i := hashTerms(t) & mask; ; i = (i + 1) & mask {
		if s := ti.slots[i]; s != 0 {
			if ti.pool[s-1] == t {
				return s - 1
			}
			continue
		}
		ti.pool = append(ti.pool, t)
		ti.slots[i] = uint32(len(ti.pool))
		if 2*len(ti.pool) > len(ti.slots) {
			ti.grow()
		}
		return uint32(len(ti.pool) - 1)
	}
}

// grow doubles the table and re-places every reference; pool entries are
// pairwise distinct, so none needs comparing.
func (ti *termInterner) grow() {
	ti.slots = make([]uint32, 2*len(ti.slots))
	mask := uint64(len(ti.slots) - 1)
	for ref, t := range ti.pool {
		i := hashTerms(t) & mask
		for ti.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ti.slots[i] = uint32(ref) + 1
	}
}
