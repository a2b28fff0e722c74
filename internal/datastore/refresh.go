package datastore

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
)

// RefreshStats describes how one snapshot was built from its
// predecessor. It is persisted in the snapshot envelope and surfaced
// by the GET /v1/datasets endpoints so operators can see what an
// append cost and how far it moved the discretization.
type RefreshStats struct {
	// AppendedRows is how many rows the append added.
	AppendedRows int `json:"appendedRows,omitempty"`
	// ChangedGenes counts genes whose refitted Fayyad–Irani cut points
	// differ from the previous version's.
	ChangedGenes int `json:"changedGenes,omitempty"`
	// FastPath is never set by an append: every append rebuilds its
	// snapshot from scratch. Only a snapshot recovered from a file
	// written by older code can carry it.
	//
	// Deprecated: the incremental refresh it reported on is gone. The
	// field stays only because the repository benchmark
	// (benchmark/layers.go, benchmark/stream.go) still reads it; drop it
	// together with those reads.
	FastPath bool `json:"fastPath,omitempty"`
	// BuildNanos is the wall time of the snapshot build (fit +
	// transform), excluding persistence.
	BuildNanos int64 `json:"buildNanos,omitempty"`
}

// buildFull fits and transforms a matrix from scratch. Every version
// is built this way: a Fayyad–Irani cut is a property of its gene's
// whole column, so an append refits every gene anyway, and the refit
// dominates the build.
func buildFull(name string, version int, m *dataset.Matrix) (*Snapshot, error) {
	dz, err := discretize.FitMatrix(m)
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
		CreatedAt:   time.Now().UTC(),
		Matrix:      m,
		Discretizer: dz,
		Dataset:     ds,
	}, nil
}
