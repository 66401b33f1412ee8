// Package wire holds the binary primitives the index snapshot
// (internal/index) and the cluster scatter frame (internal/shard) share:
// the CRC-32C table their frames are sealed with and a sticky-error
// cursor over one frame's payload.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// CRC is the CRC-32C (Castagnoli) table, hardware-accelerated on amd64/arm64.
var CRC = crc32.MakeTable(crc32.Castagnoli)

// Reader is a sticky-error cursor over one frame payload: after the first
// failure every read returns zero and Err holds that failure.
type Reader struct {
	B   []byte
	Off int
	Err error
}

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B[r.Off:])
	if n <= 0 {
		r.Fail("truncated varint at offset %d", r.Off)
		return 0
	}
	r.Off += n
	return v
}

// Count reads a uvarint bounded by max (guards allocations against
// corrupt or adversarial lengths).
func (r *Reader) Count(max int, what string) int {
	v := r.Uvarint()
	if r.Err == nil && v > uint64(max) {
		r.Fail("implausible %s count %d", what, v)
		return 0
	}
	return int(v)
}

func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.B[r.Off:])
	if n <= 0 {
		r.Fail("truncated varint at offset %d", r.Off)
		return 0
	}
	r.Off += n
	return v
}

func (r *Reader) U64() uint64 {
	if r.Err != nil {
		return 0
	}
	if r.Off+8 > len(r.B) {
		r.Fail("truncated word at offset %d", r.Off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.B[r.Off:])
	r.Off += 8
	return v
}

func (r *Reader) Float() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Bytes(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || r.Off+n > len(r.B) {
		r.Fail("truncated byte run at offset %d", r.Off)
		return nil
	}
	b := r.B[r.Off : r.Off+n]
	r.Off += n
	return b
}

// Left returns the number of unread bytes.
func (r *Reader) Left() int { return len(r.B) - r.Off }

// Done returns the sticky error, or an error if the payload has trailing
// bytes, either prefixed with what.
func (r *Reader) Done(what string) error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", what, r.Err)
	}
	if r.Off != len(r.B) {
		return fmt.Errorf("%s: %d trailing bytes", what, len(r.B)-r.Off)
	}
	return nil
}
