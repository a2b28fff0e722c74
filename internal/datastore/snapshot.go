package datastore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/discretize"
)

// SnapshotSchemaVersion is the on-disk snapshot layout written by the
// store. Recovery reads this version and schema 1, whose values were
// nested JSON number arrays.
const SnapshotSchemaVersion = 2

// snapshotKind tags the envelope so recovery rejects files written by
// other subsystems that share the data directory.
const snapshotKind = "rcbt-dataset-snapshot"

// snapshotEnvelope is one version's on-disk form. It is self-contained
// — full matrix plus the fitted cut points — so any retained version
// recovers without replaying its predecessors, and pruning old files
// never breaks newer ones. Cuts are persisted rather than refit at
// load time: FromCuts rebuilds the identical discretizer (and item
// vocabulary) deterministically, keeping recovery cheap and exact.
//
// The matrix is Rows rows of len(Genes) values, packed row-major as
// little-endian float64 bits; encoding/json writes Packed as base64.
// That is exact for every float64, about half the size of decimal
// number arrays and several times faster to encode (DESIGN.md §12).
type snapshotEnvelope struct {
	Schema    int             `json:"schema"`
	Kind      string          `json:"kind"`
	Name      string          `json:"name"`
	Version   int             `json:"version"`
	CreatedAt time.Time       `json:"createdAt"`
	Classes   []string        `json:"classes"`
	Genes     []string        `json:"genes"`
	Labels    []dataset.Label `json:"labels"`
	Rows      int             `json:"rows"`
	Packed    []byte          `json:"packedValues"`
	// Values is the schema-1 matrix, read for recovery only.
	Values  [][]float64  `json:"values,omitempty"`
	Cuts    [][]float64  `json:"cuts"`
	Refresh RefreshStats `json:"refresh"`
}

// snapshotFileRE matches version snapshot file names.
var snapshotFileRE = regexp.MustCompile(`^v(\d+)\.json$`)

// setDir returns the directory holding one dataset's snapshots.
func (s *Store) setDir(name string) string { return filepath.Join(s.dir, name) }

// snapshotPath returns the file path of one version.
func (s *Store) snapshotPath(name string, version int) string {
	return filepath.Join(s.setDir(name), fmt.Sprintf("v%06d.json", version))
}

// persist writes one snapshot file through atomicfile.Write: a crash
// leaves either the complete file or a stray .tmp that recovery
// deletes — never a torn snapshot.
func (s *Store) persist(snap *Snapshot) error {
	if err := os.MkdirAll(s.setDir(snap.Name), 0o755); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	if err := atomicfile.Write(s.snapshotPath(snap.Name, snap.Version), data); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	return nil
}

// encodeSnapshot renders a snapshot as a schema-2 envelope.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	m := snap.Matrix
	packed := make([]byte, 0, 8*len(m.Values)*len(m.GeneNames))
	for _, row := range m.Values {
		for _, v := range row {
			packed = binary.LittleEndian.AppendUint64(packed, math.Float64bits(v))
		}
	}
	return json.Marshal(snapshotEnvelope{
		Schema:    SnapshotSchemaVersion,
		Kind:      snapshotKind,
		Name:      snap.Name,
		Version:   snap.Version,
		CreatedAt: snap.CreatedAt,
		Classes:   m.ClassNames,
		Genes:     m.GeneNames,
		Labels:    m.Labels,
		Rows:      len(m.Values),
		Packed:    packed,
		Cuts:      snap.Discretizer.Cuts,
		Refresh:   snap.Refresh,
	})
}

// removeSnapshotFile deletes a pruned version's file, best-effort: a
// leftover is deleted again by the next recovery's prune.
func (s *Store) removeSnapshotFile(name string, version int) {
	os.Remove(s.snapshotPath(name, version)) // vetsuite:allow uncheckederr -- best-effort prune; recovery re-prunes leftovers
}

// recover scans the root directory and loads every dataset at its
// retained complete versions. Per dataset, the latest parseable
// version wins (a corrupt or alien file is skipped with the next
// older version tried), and up to KeepVersions complete versions are
// kept. Stray .tmp staging files from crashed writes are deleted.
func (s *Store) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("datastore: recover: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !nameRE.MatchString(e.Name()) {
			continue
		}
		st, err := s.recoverSet(e.Name())
		if err != nil {
			return err
		}
		if st != nil {
			s.sets[st.name] = st
		}
	}
	return nil
}

// recoverSet loads one dataset directory; nil when it holds no
// complete snapshot.
func (s *Store) recoverSet(name string) (*set, error) {
	dir := s.setDir(name)
	if err := atomicfile.RemoveStaging(dir); err != nil {
		return nil, fmt.Errorf("datastore: recover %s: %w", name, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("datastore: recover %s: %w", name, err)
	}
	var versions []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := snapshotFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err := strconv.Atoi(m[1])
		if err != nil || v < 1 {
			continue
		}
		versions = append(versions, v)
	}
	if len(versions) == 0 {
		return nil, nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(versions)))
	st := &set{name: name, versions: map[int]*Snapshot{}}
	for _, v := range versions {
		if st.latest != 0 && s.keep > 0 && len(st.versions) >= s.keep {
			break
		}
		snap, err := loadSnapshot(s.snapshotPath(name, v), name, v)
		if err != nil {
			// A torn rename cannot produce a corrupt file, but disk
			// mishaps can; skip it and fall back to an older version.
			continue
		}
		if st.latest == 0 {
			st.latest = v
		}
		st.versions[v] = snap
	}
	if st.latest == 0 {
		return nil, nil
	}
	return st, nil
}

// loadSnapshot reads one snapshot file and rebuilds the in-memory
// snapshot.
func loadSnapshot(path, name string, version int) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(data, name, version)
	if err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
	}
	return snap, nil
}

// decodeSnapshot rebuilds a snapshot from a schema-1 or schema-2
// envelope: matrix from the envelope, discretizer from the persisted
// cuts (FromCuts — no refit), dataset by transforming the matrix. Every
// allocation is bounded by the length of data: the row count must match
// the decoded labels, and the packed length is checked against it
// before the values are unpacked.
func decodeSnapshot(data []byte, name string, version int) (*Snapshot, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Kind != snapshotKind {
		return nil, fmt.Errorf("not a dataset snapshot (kind %q)", env.Kind)
	}
	if env.Name != name || env.Version != version {
		return nil, fmt.Errorf("envelope says %s v%d", env.Name, env.Version)
	}
	var values [][]float64
	switch env.Schema {
	case 1:
		values = env.Values
	case SnapshotSchemaVersion:
		var err error
		if values, err = unpackValues(env.Packed, env.Rows, len(env.Labels), len(env.Genes)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unsupported schema %d (want 1 or %d)", env.Schema, SnapshotSchemaVersion)
	}
	m := &dataset.Matrix{
		GeneNames:  env.Genes,
		ClassNames: env.Classes,
		Values:     values,
		Labels:     env.Labels,
	}
	if m.Values == nil {
		m.Values = [][]float64{}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkFinite(m.Values); err != nil {
		return nil, err
	}
	if len(env.Cuts) != len(env.Genes) {
		return nil, fmt.Errorf("%d cut lists for %d genes", len(env.Cuts), len(env.Genes))
	}
	dz, err := discretize.FromCuts(env.Classes, env.Genes, env.Cuts)
	if err != nil {
		return nil, err
	}
	ds, err := dz.Transform(m)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Name:        name,
		Version:     version,
		CreatedAt:   env.CreatedAt,
		Matrix:      m,
		Discretizer: dz,
		Dataset:     ds,
		Refresh:     env.Refresh,
	}, nil
}

// unpackValues rebuilds rows × genes values from their packed bits. The
// row count must equal the label count, which the decoder has already
// bounded by the file's length, and the length check divides rather
// than multiplies, so no declared count can overflow it. Rows share one
// backing array and are capped at their own length, so an append to one
// row cannot overwrite the next.
func unpackValues(packed []byte, rows, labels, genes int) ([][]float64, error) {
	if rows != labels {
		return nil, fmt.Errorf("%d rows for %d labels", rows, labels)
	}
	n := len(packed) / 8
	if len(packed)%8 != 0 || (genes == 0 && n != 0) || (genes > 0 && (n%genes != 0 || n/genes != rows)) {
		return nil, fmt.Errorf("%d packed bytes for %d rows of %d genes", len(packed), rows, genes)
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(packed[8*i:]))
	}
	values := make([][]float64, rows)
	for r := range values {
		values[r] = flat[r*genes : (r+1)*genes : (r+1)*genes]
	}
	return values, nil
}
