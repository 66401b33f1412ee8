package index

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"kbtable/internal/kg"
)

// The wire format stores the dictionary, the interned patterns, and the
// raw posting lists; the pattern-first / root-first group tables are
// rebuilt on load (they are derived data and sort faster than DFS).
//
// WireVersion is the index wire-format version this build writes and the
// only one it reads: the binary columnar container of wire2.go
// (length-prefixed CRC-32C-framed sections, encoded and decoded with
// per-word parallelism). A stream that does not start with wireMagic is
// refused before any decoder sees it — snapshots written before wire v2
// (the gob container) must be rebuilt with kbindex — and a container
// claiming a newer version is refused by its header check. Bump
// WireVersion when the posting layout changes, and regenerate the
// snapshot fixture (make snapshot-fixture).
const WireVersion = 2

// errNotWireV2 is the refusal for a stream without the wire-v2 magic.
var errNotWireV2 = fmt.Errorf("index: not a wire-v%d index stream (expected magic %q); pre-v2 snapshots are not read, rebuild the index with kbindex", WireVersion, wireMagic)

// checkMagic judges the first bytes of a stream and the error reading
// them returned: a stream that is too short or starts with anything but
// wireMagic is errNotWireV2; a failed read is reported as itself.
func checkMagic(head []byte, err error) error {
	if string(head) == wireMagic {
		return nil
	}
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("index: read magic: %w", err)
	}
	return errNotWireV2
}

// Encode serializes the index in the current wire format (WireVersion).
// The graph itself is not included; pair the index file with the graph
// file it was built from (Load verifies node and edge counts).
func (ix *Index) Encode(w io.Writer) error {
	return ix.encodeV2(w)
}

// Load reads an index written by Encode and re-derives the two access
// views against the supplied graph. Anything that does not start with the
// wire-v2 magic fails with an error naming it.
func Load(r io.Reader, g *kg.Graph) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := checkMagic(br.Peek(len(wireMagic))); err != nil {
		return nil, err
	}
	return loadV2(br, g)
}

// SaveFile writes the index to path.
func (ix *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: create %s: %w", path, err)
	}
	defer f.Close()
	if err := ix.Encode(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads an index from path against the given graph.
func LoadFile(path string, g *kg.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f, g)
}
