package datastore

import (
	"encoding/json"
	"fmt"
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
// store. Recovery accepts exactly this version.
const SnapshotSchemaVersion = 1

// snapshotKind tags the envelope so recovery rejects files written by
// other subsystems that share the data directory.
const snapshotKind = "rcbt-dataset-snapshot"

// snapshotEnvelope is one version's on-disk form. It is self-contained
// — full matrix plus the fitted cut points — so any retained version
// recovers without replaying its predecessors, and pruning old files
// never breaks newer ones. Cuts are persisted rather than refit at
// load time: FromCuts rebuilds the identical discretizer (and item
// vocabulary) deterministically, keeping recovery cheap and exact.
type snapshotEnvelope struct {
	Schema    int             `json:"schema"`
	Kind      string          `json:"kind"`
	Name      string          `json:"name"`
	Version   int             `json:"version"`
	CreatedAt time.Time       `json:"createdAt"`
	Classes   []string        `json:"classes"`
	Genes     []string        `json:"genes"`
	Labels    []dataset.Label `json:"labels"`
	Values    [][]float64     `json:"values"`
	Cuts      [][]float64     `json:"cuts"`
	Refresh   RefreshStats    `json:"refresh"`
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
	env := snapshotEnvelope{
		Schema:    SnapshotSchemaVersion,
		Kind:      snapshotKind,
		Name:      snap.Name,
		Version:   snap.Version,
		CreatedAt: snap.CreatedAt,
		Classes:   snap.Matrix.ClassNames,
		Genes:     snap.Matrix.GeneNames,
		Labels:    snap.Matrix.Labels,
		Values:    snap.Matrix.Values,
		Cuts:      snap.Discretizer.Cuts,
		Refresh:   snap.Refresh,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	if err := atomicfile.Write(s.snapshotPath(snap.Name, snap.Version), data); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	return nil
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
// snapshot: matrix from the envelope, discretizer from the persisted
// cuts (FromCuts — no refit), dataset by transforming the matrix.
func loadSnapshot(path, name string, version int) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
	}
	if env.Kind != snapshotKind {
		return nil, fmt.Errorf("datastore: %s: not a dataset snapshot (kind %q)", path, env.Kind)
	}
	if env.Schema != SnapshotSchemaVersion {
		return nil, fmt.Errorf("datastore: %s: unsupported schema %d (want %d)", path, env.Schema, SnapshotSchemaVersion)
	}
	if env.Name != name || env.Version != version {
		return nil, fmt.Errorf("datastore: %s: envelope says %s v%d", path, env.Name, env.Version)
	}
	m := &dataset.Matrix{
		GeneNames:  env.Genes,
		ClassNames: env.Classes,
		Values:     env.Values,
		Labels:     env.Labels,
	}
	if m.Values == nil {
		m.Values = [][]float64{}
	}
	if m.Labels == nil {
		m.Labels = []dataset.Label{}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
	}
	if len(env.Cuts) != len(env.Genes) {
		return nil, fmt.Errorf("datastore: %s: %d cut lists for %d genes", path, len(env.Cuts), len(env.Genes))
	}
	dz, err := discretize.FromCuts(env.Classes, env.Genes, env.Cuts)
	if err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
	}
	ds, err := dz.Transform(m)
	if err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
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
