// Wire format version 3: a binary columnar container. The file is a magic
// string followed by length-prefixed, CRC-32C-framed sections:
//
//	"KBX3"
//	frame := [section id: 1 byte][payload length: uvarint][payload][CRC-32C(payload): 4 bytes LE]
//	sections := header, dict, patterns, word*, end
//
// Every posting block is one self-contained frame per non-empty word:
// group patterns, delta-varint run roots, run lengths, per-entry edge
// counts, zigzag-delta edge IDs, the edge-end bitset, the deduplicated
// term-key pool ((uvarint len, uvarint node, float64 sim); no PageRank
// value), and per-entry pool references. Blocks are encoded and
// decoded with per-word parallelism; the group/run tables and the
// root-first permutation are re-derived on load through the same
// buildGroupTables/buildRootFirst paths construction uses, so a loaded
// index is structurally identical to a freshly built one.
package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/text"
	"kbtable/internal/wire"
)

// wireMagic identifies a WireVersion index stream; Load refuses the rest.
const wireMagic = "KBX3"

// Section identifiers of the container.
const (
	secHeader byte = 1
	secDict   byte = 2
	secPats   byte = 3
	secWord   byte = 4
	secEnd    byte = 5
)

// writeFrame emits one section frame.
func writeFrame(bw *bufio.Writer, id byte, payload []byte) error {
	if err := bw.WriteByte(id); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload, wire.CRC))
	_, err := bw.Write(crcBuf[:])
	return err
}

// readFrame reads and CRC-verifies one section frame.
func readFrame(br *bufio.Reader) (byte, []byte, error) {
	id, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("index: truncated stream: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("index: section %d: bad length: %w", id, err)
	}
	if n > 1<<32 {
		return 0, nil, fmt.Errorf("index: section %d: implausible length %d", id, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("index: section %d: truncated payload: %w", id, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("index: section %d: truncated checksum: %w", id, err)
	}
	if got, want := crc32.Checksum(payload, wire.CRC), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return 0, nil, fmt.Errorf("index: section %d: checksum mismatch (corrupt snapshot)", id)
	}
	return id, payload, nil
}

// encodeWire writes the container. Word blocks are built concurrently
// and written in word order, so the output is deterministic.
func (ix *Index) encodeWire(w io.Writer) error {
	blocks := make([][]byte, len(ix.words))
	parallelWords(len(ix.words), defaultWorkers(0), func(i int) {
		wi := &ix.words[i]
		if wi.n == 0 {
			return
		}
		blocks[i] = encodeWordBlock(i, wi)
	})

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(wireMagic); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(WireVersion))
	hdr = binary.AppendUvarint(hdr, uint64(ix.d))
	hdr = binary.AppendUvarint(hdr, uint64(ix.g.NumNodes()))
	hdr = binary.AppendUvarint(hdr, uint64(ix.g.NumEdges()))
	hdr = binary.AppendUvarint(hdr, uint64(len(ix.words)))
	hdr = binary.AppendUvarint(hdr, uint64(ix.pt.Len()))
	if err := writeFrame(bw, secHeader, hdr); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	if err := writeFrame(bw, secDict, encodeDict(ix.dict.Snapshot())); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	if err := writeFrame(bw, secPats, encodePatterns(ix.pt.Snapshot())); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	for _, b := range blocks {
		if b == nil {
			continue
		}
		if err := writeFrame(bw, secWord, b); err != nil {
			return fmt.Errorf("index: encode: %w", err)
		}
	}
	if err := writeFrame(bw, secEnd, nil); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return nil
}

// encodeDict serializes the dictionary snapshot (synonyms sorted by alias
// for determinism).
func encodeDict(s text.Snapshot) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(s.Words)))
	for _, w := range s.Words {
		b = binary.AppendUvarint(b, uint64(len(w)))
		b = append(b, w...)
	}
	for _, st := range s.StemOf {
		b = binary.AppendUvarint(b, uint64(st))
	}
	aliases := make([]text.WordID, 0, len(s.Synonyms))
	for k := range s.Synonyms {
		aliases = append(aliases, k)
	}
	sort.Slice(aliases, func(i, j int) bool { return aliases[i] < aliases[j] })
	b = binary.AppendUvarint(b, uint64(len(aliases)))
	for _, k := range aliases {
		b = binary.AppendUvarint(b, uint64(k))
		b = binary.AppendUvarint(b, uint64(s.Synonyms[k]))
	}
	return b
}

func decodeDict(payload []byte) (*text.Dict, error) {
	r := &wire.Reader{B: payload}
	n := r.Count(1<<28, "dict word")
	s := text.Snapshot{Words: make([]string, 0, max(n, 0)), Synonyms: map[text.WordID]text.WordID{}}
	for i := 0; i < n && r.Err == nil; i++ {
		l := r.Count(1<<20, "word length")
		s.Words = append(s.Words, string(r.Bytes(l)))
	}
	s.StemOf = make([]text.WordID, 0, max(n, 0))
	for i := 0; i < n && r.Err == nil; i++ {
		s.StemOf = append(s.StemOf, text.WordID(r.Uvarint()))
	}
	syn := r.Count(n, "synonym")
	for i := 0; i < syn && r.Err == nil; i++ {
		k := text.WordID(r.Uvarint())
		v := text.WordID(r.Uvarint())
		s.Synonyms[k] = v
	}
	if err := r.Done("index: dict section"); err != nil {
		return nil, err
	}
	return text.FromSnapshot(s) // validates stem/synonym ranges
}

// encodePatterns serializes the interned pattern table.
func encodePatterns(pats []core.PathPattern) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(pats)))
	for _, p := range pats {
		b = binary.AppendUvarint(b, uint64(len(p.Types)))
		if p.EdgeEnd {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for _, t := range p.Types {
			b = binary.AppendUvarint(b, uint64(t))
		}
		for _, a := range p.Attrs {
			b = binary.AppendUvarint(b, uint64(a))
		}
	}
	return b
}

func decodePatterns(payload []byte, g *kg.Graph, want int) ([]core.PathPattern, error) {
	r := &wire.Reader{B: payload}
	n := r.Count(1<<26, "pattern")
	if r.Err == nil && n != want {
		return nil, fmt.Errorf("index: pattern section has %d patterns, header says %d", n, want)
	}
	pats := make([]core.PathPattern, 0, max(n, 0))
	for i := 0; i < n && r.Err == nil; i++ {
		nt := r.Count(1<<16, "pattern type")
		if r.Err == nil && nt < 1 {
			return nil, fmt.Errorf("index: pattern %d has no types", i)
		}
		var edgeEnd bool
		switch eb := r.Bytes(1); {
		case r.Err != nil:
		case eb[0] == 1:
			edgeEnd = true
		case eb[0] != 0:
			return nil, fmt.Errorf("index: pattern %d has invalid edge-end flag %d", i, eb[0])
		}
		p := core.PathPattern{Types: make([]kg.TypeID, nt), EdgeEnd: edgeEnd}
		for j := range p.Types {
			t := r.Uvarint()
			if r.Err == nil && t >= uint64(g.NumTypes()) {
				return nil, fmt.Errorf("index: pattern %d references type %d out of range", i, t)
			}
			p.Types[j] = kg.TypeID(t)
		}
		na := nt - 1
		if edgeEnd {
			na = nt
		}
		p.Attrs = make([]kg.AttrID, na)
		for j := range p.Attrs {
			a := r.Uvarint()
			if r.Err == nil && a >= uint64(g.NumAttrs()) {
				return nil, fmt.Errorf("index: pattern %d references attribute %d out of range", i, a)
			}
			p.Attrs[j] = kg.AttrID(a)
		}
		pats = append(pats, p)
	}
	if err := r.Done("index: pattern section"); err != nil {
		return nil, err
	}
	return pats, nil
}

// encodeWordBlock serializes one word's postings straight from the
// columnar layout.
func encodeWordBlock(w int, wi *wordIndex) []byte {
	n := int(wi.n)
	b := make([]byte, 0, len(wi.rootBytes)+n*4+len(wi.edgeBuf)*2+len(wi.termPool)*12)
	b = binary.AppendUvarint(b, uint64(w))
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(len(wi.patGroups)))
	for gi := range wi.patGroups {
		pg := &wi.patGroups[gi]
		b = binary.AppendUvarint(b, uint64(pg.Pattern))
		b = binary.AppendUvarint(b, uint64(pg.RunEnd-pg.RunStart))
	}
	// Run roots: the resident arena IS the wire encoding (delta uvarints
	// per group), so it is written verbatim.
	b = binary.AppendUvarint(b, uint64(len(wi.rootBytes)))
	b = append(b, wi.rootBytes...)
	for k := range wi.runEnd {
		b = binary.AppendUvarint(b, uint64(wi.runEnd[k]-wi.runStart(int32(k))))
	}
	for i := 0; i < n; i++ {
		b = binary.AppendUvarint(b, uint64(wi.edgeStart[i+1]-wi.edgeStart[i]))
	}
	prev := int64(0)
	for _, e := range wi.edgeBuf {
		b = binary.AppendVarint(b, int64(e)-prev)
		prev = int64(e)
	}
	bits := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if wi.edgeEndBit(int32(i)) {
			bits[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	b = append(b, bits...)
	b = binary.AppendUvarint(b, uint64(len(wi.termPool)))
	for _, t := range wi.termPool {
		b = binary.AppendUvarint(b, uint64(t.len))
		b = binary.AppendUvarint(b, uint64(t.node))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.sim))
	}
	for _, ref := range wi.termRef {
		b = binary.AppendUvarint(b, uint64(ref))
	}
	return b
}

// decodeWordBlock rebuilds one word's columnar postings, validating every
// reference against the graph, the pattern table and the PR vector pr,
// and re-derives both views. Returns the word id.
func decodeWordBlock(payload []byte, wi *wordIndex, g *kg.Graph, patRootType []kg.TypeID, pr []float64) (int, error) {
	r := &wire.Reader{B: payload}
	w := r.Count(1<<31, "word id")
	n := r.Count(1<<30, "entry")
	nGroups := r.Count(n, "group")
	if r.Err == nil && (n < 1 || nGroups < 1) {
		return w, fmt.Errorf("index: word %d: empty posting block", w)
	}
	groupPats := make([]core.PatternID, 0, max(nGroups, 0))
	groupRuns := make([]int32, 0, max(nGroups, 0))
	totalRuns := 0
	for gi := 0; gi < nGroups && r.Err == nil; gi++ {
		p := r.Uvarint()
		if r.Err == nil && p >= uint64(len(patRootType)) {
			return w, fmt.Errorf("index: word %d: entry references unknown pattern %d", w, p)
		}
		runs := r.Count(n-totalRuns, "run")
		if r.Err == nil && runs < 1 {
			return w, fmt.Errorf("index: word %d: empty pattern group", w)
		}
		pid := core.PatternID(p)
		if gi > 0 && r.Err == nil {
			prev := groupPats[gi-1]
			pt, ct := patRootType[prev], patRootType[pid]
			if pt > ct || (pt == ct && prev >= pid) {
				return w, fmt.Errorf("index: word %d: pattern groups out of order", w)
			}
		}
		groupPats = append(groupPats, pid)
		groupRuns = append(groupRuns, int32(runs))
		totalRuns += runs
	}

	// Run roots: decode the per-group delta varints, validating strict
	// ascent and node range.
	rb := r.Bytes(r.Count(len(payload), "root byte"))
	runRoots := make([]kg.NodeID, 0, totalRuns)
	if r.Err == nil {
		off := int32(0)
		for gi := 0; gi < nGroups; gi++ {
			prev := kg.NodeID(-1)
			for k := int32(0); k < groupRuns[gi]; k++ {
				if int(off) >= len(rb) {
					return w, fmt.Errorf("index: word %d: truncated run roots", w)
				}
				prev, off = decodeRootDelta(rb, off, prev)
				if int(prev) >= g.NumNodes() || prev < 0 {
					return w, fmt.Errorf("index: word %d: entry references node %d out of range", w, prev)
				}
				runRoots = append(runRoots, prev)
			}
		}
		if int(off) != len(rb) {
			return w, fmt.Errorf("index: word %d: %d trailing root bytes", w, len(rb)-int(off))
		}
	}

	// Run lengths -> runEnd.
	wi.runEnd = make([]int32, 0, totalRuns)
	sum := 0
	for k := 0; k < totalRuns && r.Err == nil; k++ {
		l := r.Count(n-sum, "run length")
		if r.Err == nil && l < 1 {
			return w, fmt.Errorf("index: word %d: empty run", w)
		}
		sum += l
		wi.runEnd = append(wi.runEnd, int32(sum))
	}
	if r.Err == nil && sum != n {
		return w, fmt.Errorf("index: word %d: runs cover %d of %d entries", w, sum, n)
	}

	// Edge counts -> edgeStart; then the zigzag-delta edge IDs.
	wi.n = int32(n)
	wi.edgeStart = make([]int32, n+1)
	totalEdges := 0
	for i := 0; i < n && r.Err == nil; i++ {
		wi.edgeStart[i] = int32(totalEdges)
		totalEdges += r.Count(1<<24, "edge")
		if totalEdges > 1<<30 {
			return w, fmt.Errorf("index: word %d: implausible edge total", w)
		}
	}
	wi.edgeStart[n] = int32(totalEdges)
	wi.edgeBuf = make([]kg.EdgeID, 0, totalEdges)
	prevEdge := int64(0)
	for j := 0; j < totalEdges && r.Err == nil; j++ {
		prevEdge += r.Varint()
		if r.Err == nil && (prevEdge < 0 || prevEdge >= int64(g.NumEdges())) {
			return w, fmt.Errorf("index: word %d: entry references edge %d out of range", w, prevEdge)
		}
		wi.edgeBuf = append(wi.edgeBuf, kg.EdgeID(prevEdge))
	}

	// Edge-end bitset.
	bits := r.Bytes((n + 7) / 8)
	wi.edgeEnds = make([]uint64, (n+63)/64)
	for i := 0; i < n && r.Err == nil; i++ {
		if bits[i>>3]&(1<<(uint(i)&7)) != 0 {
			wi.edgeEnds[i>>6] |= 1 << (uint(i) & 63)
		}
	}

	// Term pool (each node indexes the graph and the PR vector) + per-entry
	// references.
	poolLen := r.Count(n, "term pool")
	if r.Err == nil && poolLen < 1 {
		return w, fmt.Errorf("index: word %d: empty term pool", w)
	}
	wi.termPool = make([]termEntry, 0, max(poolLen, 0))
	for i := 0; i < poolLen && r.Err == nil; i++ {
		l, node := r.Count(1<<20, "path length"), r.Uvarint()
		if r.Err == nil && (node >= uint64(g.NumNodes()) || node >= uint64(len(pr))) {
			return w, fmt.Errorf("index: word %d: term pool references node %d out of range", w, node)
		}
		wi.termPool = append(wi.termPool, termEntry{len: int32(l), node: kg.NodeID(node), sim: r.Float()})
	}
	wi.termRef = make([]uint32, n)
	for i := 0; i < n && r.Err == nil; i++ {
		ref := r.Uvarint()
		if r.Err == nil && ref >= uint64(poolLen) {
			return w, fmt.Errorf("index: word %d: term reference %d out of range", w, ref)
		}
		wi.termRef[i] = uint32(ref)
	}
	if err := r.Done(fmt.Sprintf("index: word %d block", w)); err != nil {
		return w, err
	}

	// Re-derive the group tables (rootBytes, skip table, bounds, type
	// groups) and the root-first view through the shared construction
	// paths. The per-run keys come straight from the run partition.
	buildGroupTables(wi, groupPats, groupRuns, runRoots, patRootType, pr)
	runPats := make([]core.PatternID, len(runRoots))
	run := 0
	for gi := 0; gi < nGroups; gi++ {
		for k := int32(0); k < groupRuns[gi]; k++ {
			runPats[run] = groupPats[gi]
			run++
		}
	}
	buildRootFirst(wi, runPats, runRoots)
	return w, nil
}

// loadWire reads the container (magic still unconsumed in br).
func loadWire(br *bufio.Reader, g *kg.Graph, pr []float64) (*Index, error) {
	start := time.Now()
	if _, err := br.Discard(len(wireMagic)); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	id, payload, err := readFrame(br)
	if err != nil {
		return nil, err
	}
	if id != secHeader {
		return nil, fmt.Errorf("index: expected header section, got %d", id)
	}
	hr := &wire.Reader{B: payload}
	version := hr.Uvarint()
	d := hr.Count(1<<20, "height threshold")
	nodes := hr.Count(1<<40, "node")
	edges := hr.Count(1<<40, "edge")
	numWords := hr.Count(1<<31, "word")
	numPatterns := hr.Count(1<<26, "pattern")
	if err := hr.Done("index: header section"); err != nil {
		return nil, err
	}
	if version != WireVersion {
		return nil, fmt.Errorf("index: wire-format version %d not supported (this build reads %d)", version, WireVersion)
	}
	if nodes != g.NumNodes() || edges != g.NumEdges() {
		return nil, fmt.Errorf("index: built for a graph with %d nodes/%d edges, got %d/%d",
			nodes, edges, g.NumNodes(), g.NumEdges())
	}
	if d < 1 {
		return nil, fmt.Errorf("index: invalid height threshold %d", d)
	}

	id, payload, err = readFrame(br)
	if err != nil {
		return nil, err
	}
	if id != secDict {
		return nil, fmt.Errorf("index: expected dict section, got %d", id)
	}
	dict, err := decodeDict(payload)
	if err != nil {
		return nil, err
	}

	id, payload, err = readFrame(br)
	if err != nil {
		return nil, err
	}
	if id != secPats {
		return nil, fmt.Errorf("index: expected pattern section, got %d", id)
	}
	pats, err := decodePatterns(payload, g, numPatterns)
	if err != nil {
		return nil, err
	}

	ix := &Index{g: g, d: d, dict: dict, pt: core.TableFromSnapshot(pats)}
	patRootType := patternRootTypes(ix.pt)
	ix.words = make([]wordIndex, numWords)

	// Drain the word frames sequentially (the reader is a stream), then
	// decode the posting blocks in parallel.
	var blocks [][]byte
	for {
		id, payload, err = readFrame(br)
		if err != nil {
			return nil, err
		}
		if id == secEnd {
			break
		}
		if id != secWord {
			return nil, fmt.Errorf("index: unexpected section %d", id)
		}
		blocks = append(blocks, payload)
	}
	wordIDs := make([]int, len(blocks))
	errs := make([]error, len(blocks))
	parallelWords(len(blocks), defaultWorkers(0), func(bi int) {
		var wi wordIndex
		w, err := decodeWordBlock(blocks[bi], &wi, g, patRootType, pr)
		wordIDs[bi] = w
		if err != nil {
			errs[bi] = err
			return
		}
		if w >= numWords {
			errs[bi] = fmt.Errorf("index: posting block for word %d beyond dictionary (%d words)", w, numWords)
			return
		}
		ix.words[w] = wi
	})
	prev := -1
	for bi := range blocks {
		if errs[bi] != nil {
			return nil, errs[bi]
		}
		if wordIDs[bi] <= prev {
			return nil, fmt.Errorf("index: posting blocks out of word order")
		}
		prev = wordIDs[bi]
	}
	for i := range ix.words {
		ix.stats.NumEntries += int64(ix.words[i].numEntries())
	}
	ix.stats.D = d
	ix.stats.NumPatterns = ix.pt.Len()
	ix.stats.Bytes = ix.sizeBytes()
	ix.stats.BuildTime = time.Since(start) // load time; cheaper than DFS
	return ix, nil
}
