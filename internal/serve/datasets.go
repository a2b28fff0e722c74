package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/jobs"
)

// DatasetRow is one expression row in a dataset create/append request:
// raw values (one per gene) plus a class label, given as a class name
// or a class index.
type DatasetRow struct {
	Values []float64 `json:"values"`
	Label  RowLabel  `json:"label"`
}

// RowLabel accepts a class name ("ALL") or a class index (0) and
// resolves against the dataset's class list.
type RowLabel struct {
	name  string
	index int
	isIdx bool
	set   bool
}

// UnmarshalJSON accepts a JSON string (class name) or number (index).
func (l *RowLabel) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		*l = RowLabel{name: s, set: true}
		return nil
	}
	var idx int
	if err := json.Unmarshal(b, &idx); err != nil {
		return errors.New("label must be a class name or a class index")
	}
	*l = RowLabel{index: idx, isIdx: true, set: true}
	return nil
}

// resolve maps the label onto the class list.
func (l RowLabel) resolve(classes []string) (dataset.Label, error) {
	if !l.set {
		return 0, errors.New("row has no label")
	}
	if l.isIdx {
		if l.index < 0 || l.index >= len(classes) {
			return 0, fmt.Errorf("label index %d outside [0,%d)", l.index, len(classes))
		}
		return dataset.Label(l.index), nil
	}
	for i, c := range classes {
		if c == l.name {
			return dataset.Label(i), nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (have %v)", l.name, classes)
}

// DatasetCreateRequest is the body of POST /v1/datasets.
type DatasetCreateRequest struct {
	Name    string       `json:"name"`
	Classes []string     `json:"classes"`
	Genes   []string     `json:"genes"`
	Rows    []DatasetRow `json:"rows,omitempty"`
}

// DatasetAppendRequest is the body of POST /v1/datasets/{name}/rows.
type DatasetAppendRequest struct {
	Rows []DatasetRow `json:"rows"`
}

// DatasetInfo describes one dataset snapshot in the GET responses.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Version int      `json:"version"`
	Rows    int      `json:"rows"`
	Genes   int      `json:"genes"`
	Classes []string `json:"classes"`
	// Items and SelectedGenes describe the discretized form: the item
	// vocabulary size and how many genes survived MDL.
	Items         int       `json:"items"`
	SelectedGenes int       `json:"selectedGenes"`
	CreatedAt     time.Time `json:"createdAt"`
	// Refresh reports how this version was built from its predecessor
	// (absent on version 1).
	Refresh *datastore.RefreshStats `json:"refresh,omitempty"`
	// Versions lists the retained snapshot versions (latest-info
	// responses only).
	Versions []int `json:"versions,omitempty"`
}

// datasetInfo renders a snapshot.
func datasetInfo(snap *datastore.Snapshot) DatasetInfo {
	info := DatasetInfo{
		Name:          snap.Name,
		Version:       snap.Version,
		Rows:          snap.Matrix.NumRows(),
		Genes:         snap.Matrix.NumGenes(),
		Classes:       snap.Matrix.ClassNames,
		Items:         snap.Dataset.NumItems(),
		SelectedGenes: snap.Discretizer.NumSelectedGenes(),
		CreatedAt:     snap.CreatedAt,
	}
	if snap.Refresh != (datastore.RefreshStats{}) {
		r := snap.Refresh
		info.Refresh = &r
	}
	return info
}

// rowsToColumns resolves request rows into the store's values+labels
// form.
func rowsToColumns(rows []DatasetRow, classes []string) ([][]float64, []dataset.Label, error) {
	values := make([][]float64, len(rows))
	labels := make([]dataset.Label, len(rows))
	for i, r := range rows {
		l, err := r.Label.resolve(classes)
		if err != nil {
			return nil, nil, fmt.Errorf("row %d: %w", i, err)
		}
		values[i] = r.Values
		labels[i] = l
	}
	return values, labels, nil
}

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	var req DatasetCreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	values, labels, err := rowsToColumns(req.Rows, req.Classes)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	snap, err := s.store.Create(req.Name, req.Classes, req.Genes, values, labels)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo(snap))
}

func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req DatasetAppendRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	cur, err := s.store.Get(name)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	values, labels, err := rowsToColumns(req.Rows, cur.Matrix.ClassNames)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	snap, err := s.store.Append(name, values, labels)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	if s.refresher != nil {
		s.refresher.Trigger(name)
	}
	writeJSON(w, http.StatusOK, datasetInfo(snap))
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := make([]DatasetInfo, 0)
	for _, name := range s.store.Names() {
		snap, err := s.store.Get(name)
		if err != nil {
			continue // removed between Names and Get
		}
		infos = append(infos, datasetInfo(snap))
	}
	writeJSON(w, http.StatusOK, map[string][]DatasetInfo{"datasets": infos})
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, err := s.store.Get(name)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	info := datasetInfo(snap)
	if vs, err := s.store.Versions(name); err == nil {
		info.Versions = vs
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDatasetGetVersion(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil || v < 1 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("version %q must be a positive integer", r.PathValue("v")))
		return
	}
	snap, err := s.store.GetVersion(name, v)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo(snap))
}

// writeDatasetError maps the datastore sentinels onto the HTTP error
// taxonomy: a pruned pinned version is a 409 (the reference was valid
// once; the conflict is with the retention policy), like ErrExists.
func writeDatasetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, datastore.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, datastore.ErrVersionGone):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, datastore.ErrExists):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, datastore.ErrBadRequest):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// fireRefresh is the auto-refresh trigger target: it resolves the
// dataset's latest snapshot and submits a train job for it. The job
// flows through the normal pipeline — journal, worker pool, model
// persistence — and the server's SetOnModel hook hot-swaps the
// refreshed model into the serve registry with a fresh prediction
// cache, so a client polling /v1/models/{name}/classify across the swap
// only ever sees a fully installed model (old or new).
func (s *Server) fireRefresh(name string) {
	snap, err := s.store.Get(name)
	if err != nil {
		if s.logger != nil {
			s.logger.Error("auto-refresh resolve", "dataset", name, "err", err)
		}
		return
	}
	spec := s.refreshSpec
	spec.Kind = jobs.KindTrain
	spec.Dataset = name
	if spec.ModelName == "" {
		spec.ModelName = name
	}
	rec, err := s.jobs.Submit(spec, jobs.Data{
		Dataset:     snap.Dataset,
		Discretizer: snap.Discretizer,
		Name:        name,
		Version:     snap.Version,
	})
	if err != nil {
		if s.logger != nil {
			s.logger.Error("auto-refresh submit", "dataset", name, "version", snap.Version, "err", err)
		}
		return
	}
	if s.logger != nil {
		s.logger.Info("auto-refresh train submitted",
			"dataset", name, "version", snap.Version, "job", rec.ID, "model", spec.ModelName)
	}
}

// Close releases the server's background resources: the auto-refresh
// debouncer stops firing. Safe to call on servers without a datastore.
func (s *Server) Close() {
	if s.refresher != nil {
		s.refresher.Stop()
	}
}

// writeModelVersionMetrics emits one gauge per served model reporting
// the datastore snapshot version it was trained on (0 = unversioned
// data), so dashboards can alert when a served model lags its dataset.
func (s *Server) writeModelVersionMetrics(w io.Writer) {
	type mv struct {
		name    string
		version int
	}
	s.mu.RLock()
	vs := make([]mv, 0, len(s.models))
	for name, sm := range s.models {
		vs = append(vs, mv{name, sm.model.Meta.DatasetVersion})
	}
	s.mu.RUnlock()
	if len(vs) == 0 {
		return
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].name < vs[j].name })
	fmt.Fprintln(w, "# HELP rcbtserved_model_dataset_version Datastore snapshot version the model was trained on (0 = unversioned).")
	fmt.Fprintln(w, "# TYPE rcbtserved_model_dataset_version gauge")
	for _, v := range vs {
		fmt.Fprintf(w, "rcbtserved_model_dataset_version{model=%q} %d\n", v.name, v.version)
	}
}

// writeDatasetMetrics emits per-dataset latest-version gauges.
func (s *Server) writeDatasetMetrics(w io.Writer) {
	names := s.store.Names()
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(w, "# HELP rcbtserved_dataset_latest_version Latest snapshot version per dataset.")
	fmt.Fprintln(w, "# TYPE rcbtserved_dataset_latest_version gauge")
	for _, name := range names {
		snap, err := s.store.Get(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "rcbtserved_dataset_latest_version{dataset=%q} %d\n", name, snap.Version)
	}
}
