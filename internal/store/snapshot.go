package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A snapshot is a directory snap-<seq> holding a checksummed MANIFEST
// plus the files the manifest names (the serialized graph and one index
// file per shard). <seq> is the last WAL sequence number the snapshot
// includes: recovery loads the snapshot and replays only records with
// larger sequence numbers. Snapshots are written to a .tmp directory
// and renamed into place, so a half-written snapshot is never eligible
// for recovery.

// FormatVersion is the snapshot manifest format this build writes.
// Readers refuse manifests with a larger version; bumping it requires
// regenerating the checked-in fixture (make snapshot-fixture).
const FormatVersion = 1

// manifestMagic leads the MANIFEST file: "kbsnap1 <crc32c> <len>\n<json>".
const manifestMagic = "kbsnap1"

// ErrNoSnapshot reports that a data directory holds no loadable
// snapshot (a fresh directory, before the first checkpoint).
var ErrNoSnapshot = errors.New("store: no snapshot")

// Manifest describes one snapshot: the engine configuration needed to
// reload it, the WAL position it includes, and a checksum per file.
type Manifest struct {
	// FormatVersion is the snapshot format (see FormatVersion).
	FormatVersion int `json:"format_version"`
	// IndexWireVersion records the index wire format the snapshot's
	// index files were written in (index.WireVersion at checkpoint
	// time; 0 in manifests from builds that predate the field). The
	// store treats it as opaque metadata — index.Load sniffs the actual
	// container — but recovery tooling and the fixture gate use it to
	// assert which format a snapshot actually carries.
	IndexWireVersion int `json:"index_wire_version,omitempty"`
	// Seq is the last WAL sequence number reflected in the snapshot
	// (0 = the initial state, before any logged update).
	Seq uint64 `json:"seq"`
	// D is the engine's height threshold.
	D int `json:"d"`
	// Shards is EngineOptions.Shards as the engine was given it: 0 and 1
	// both mean one shard, and the snapshot then holds exactly one index
	// file and no ownership table.
	Shards int `json:"shards"`
	// Epochs are the per-shard update epochs (nil with one shard).
	Epochs []uint64 `json:"epochs,omitempty"`
	// Nodes / Edges fingerprint the graph; loading cross-checks them.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// UniformPR records EngineOptions.UniformPageRank.
	UniformPR bool `json:"uniform_pagerank,omitempty"`
	// Synonyms records EngineOptions.Synonyms (they steer incremental
	// maintenance and baseline builds after recovery).
	Synonyms map[string]string `json:"synonyms,omitempty"`
	// Files maps each snapshot file to its hex SHA-256; loads verify.
	Files map[string]string `json:"files"`
}

// Snapshot is a loadable snapshot directory.
type Snapshot struct {
	// Dir is the snapshot directory path.
	Dir string
	// Manifest is the verified manifest.
	Manifest Manifest
}

func snapDirName(seq uint64) string { return fmt.Sprintf("snap-%020d", seq) }

func parseSnapDirName(name string) (uint64, bool) {
	const prefix = "snap-"
	if !strings.HasPrefix(name, prefix) || strings.Contains(name, ".") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeManifest renders the MANIFEST file bytes.
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	crc := crc32.Checksum(body, walCRC)
	head := fmt.Sprintf("%s %08x %d\n", manifestMagic, crc, len(body))
	return append([]byte(head), body...), nil
}

// decodeManifest parses and verifies MANIFEST bytes.
func decodeManifest(data []byte) (*Manifest, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("store: manifest: missing header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != manifestMagic {
		return nil, fmt.Errorf("store: manifest: bad header %q", string(data[:nl]))
	}
	wantCRC, err1 := strconv.ParseUint(fields[1], 16, 32)
	wantLen, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		return nil, errors.New("store: manifest: malformed header")
	}
	body := data[nl+1:]
	if len(body) != wantLen {
		return nil, fmt.Errorf("store: manifest: body is %d bytes, header says %d", len(body), wantLen)
	}
	if crc32.Checksum(body, walCRC) != uint32(wantCRC) {
		return nil, errors.New("store: manifest: checksum mismatch")
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.FormatVersion < 1 || m.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("store: manifest format version %d not supported (this build reads up to %d)", m.FormatVersion, FormatVersion)
	}
	return &m, nil
}

// writeSnapshot materializes a snapshot directory under dir: every file
// is produced by its writer callback, checksummed, and fsynced; the
// manifest is finalized with the checksums; the .tmp directory is then
// atomically renamed to snap-<seq>. Returns the total bytes written.
// An existing snap-<seq> is left untouched (same seq = same contents).
func writeSnapshot(dir string, m Manifest, files map[string]func(io.Writer) error) (int64, error) {
	final := filepath.Join(dir, snapDirName(m.Seq))
	if _, err := os.Stat(final); err == nil {
		return 0, fmt.Errorf("store: snapshot %s already exists", final)
	}
	m.FormatVersion = FormatVersion
	m.Files = make(map[string]string, len(files))

	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("store: clear %s: %w", tmp, err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("store: mkdir %s: %w", tmp, err)
	}
	var total int64
	// Deterministic write order keeps failures reproducible.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n, sum, err := writeChecksummed(filepath.Join(tmp, name), files[name])
		if err != nil {
			return 0, err
		}
		m.Files[name] = sum
		total += n
	}
	mb, err := encodeManifest(&m)
	if err != nil {
		return 0, err
	}
	if err := writeFileSync(filepath.Join(tmp, "MANIFEST"), mb); err != nil {
		return 0, err
	}
	total += int64(len(mb))
	if err := syncDir(tmp); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return total, nil
}

// writeChecksummed streams fill's output to path through SHA-256,
// fsyncs, and returns the byte count and hex digest.
func writeChecksummed(path string, fill func(io.Writer) error) (int64, string, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, "", fmt.Errorf("store: create %s: %w", path, err)
	}
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(f, h)}
	if err := fill(cw); err != nil {
		f.Close()
		return 0, "", fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, "", fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, "", fmt.Errorf("store: close %s: %w", path, err)
	}
	return cw.n, hex.EncodeToString(h.Sum(nil)), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable (best effort on filesystems that reject directory fsync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// latestSnapshot finds the highest-seq snapshot with a valid manifest.
func latestSnapshot(dir string) (*Snapshot, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if seq, ok := parseSnapDirName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	var firstErr error
	for _, seq := range seqs {
		sd := filepath.Join(dir, snapDirName(seq))
		data, err := os.ReadFile(filepath.Join(sd, "MANIFEST"))
		if err == nil {
			var m *Manifest
			if m, err = decodeManifest(data); err == nil {
				if m.Seq != seq {
					err = fmt.Errorf("store: %s: manifest claims seq %d", sd, m.Seq)
				} else {
					return &Snapshot{Dir: sd, Manifest: *m}, nil
				}
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("store: snapshot %s unreadable: %w", sd, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ErrNoSnapshot
}

// ReadFile returns a named snapshot file's contents after verifying its
// manifest checksum.
func (sn *Snapshot) ReadFile(name string) ([]byte, error) {
	want, ok := sn.Manifest.Files[name]
	if !ok {
		return nil, fmt.Errorf("store: snapshot %s has no file %q", sn.Dir, name)
	}
	data, err := os.ReadFile(filepath.Join(sn.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != want {
		return nil, fmt.Errorf("store: snapshot file %s/%s fails its checksum", sn.Dir, name)
	}
	return data, nil
}

// NumIndexFiles returns how many shard-NNN.idx files the snapshot holds.
func (sn *Snapshot) NumIndexFiles() int {
	n := 0
	for name := range sn.Manifest.Files {
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".idx") {
			n++
		}
	}
	return n
}

// IndexFileName names shard si's index file inside a snapshot.
func IndexFileName(si int) string { return fmt.Sprintf("shard-%03d.idx", si) }

// GraphFileName is the serialized graph's name inside a snapshot.
const GraphFileName = "graph.bin"

// OwnersFileName is the shard-ownership table's name (sharded only).
const OwnersFileName = "owners.bin"
