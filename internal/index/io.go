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
// per-word parallelism; v3 stores term-pool nodes where v2 stored PR). A
// stream that does not start with wireMagic is refused before any decoder
// sees it — earlier versions (v2, the v1 gob container) must be rebuilt
// with kbindex — and a container claiming another version is refused by
// its header check. Bump WireVersion and wireMagic when the posting layout
// changes, and regenerate the snapshot fixture (make snapshot-fixture).
const WireVersion = 3

// errNotCurrentWire is the refusal for a stream without the current magic.
var errNotCurrentWire = fmt.Errorf("index: not a wire-v%d index stream (expected magic %q); snapshots of earlier wire versions are not read, rebuild the index with kbindex", WireVersion, wireMagic)

// checkMagic judges the first bytes of a stream and the error reading
// them returned: a stream that is too short or starts with anything but
// wireMagic is errNotCurrentWire; a failed read is reported as itself.
func checkMagic(head []byte, err error) error {
	if string(head) == wireMagic {
		return nil
	}
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("index: read magic: %w", err)
	}
	return errNotCurrentWire
}

// Encode serializes the index in the current wire format (WireVersion).
// The graph itself is not included; pair the index file with the graph
// file it was built from (Load verifies node and edge counts).
func (ix *Index) Encode(w io.Writer) error {
	return ix.encodeWire(w)
}

// Load reads an index written by Encode and re-derives the two access
// views against the supplied graph and the PageRank vector it was built
// with (nil under UniformPR), which its postings read PR from. Anything
// that does not start with the current wire magic fails with an error
// naming it.
func Load(r io.Reader, g *kg.Graph, pr []float64) (*Index, error) {
	pr, err := resolvePageRank(g, Options{PageRank: pr, UniformPR: true})
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(r, 1<<16)
	if err := checkMagic(br.Peek(len(wireMagic))); err != nil {
		return nil, err
	}
	return loadWire(br, g, pr)
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

// LoadFile reads an index from path (see Load).
func LoadFile(path string, g *kg.Graph, pr []float64) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f, g, pr)
}
