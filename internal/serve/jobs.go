package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/jobs"
)

// JobRequest is the body of POST /v1/jobs: a job spec plus the data to
// run it on — either "dataset" naming a registered dataset or "data"
// carrying rows inline (exactly one of the two).
type JobRequest struct {
	jobs.Spec
	Data *InlineDataset `json:"data,omitempty"`
}

// InlineDataset is a discretized dataset carried in a job submission.
type InlineDataset struct {
	// Classes are the class names; row labels index into them.
	Classes []string `json:"classes"`
	// Items optionally names the item universe. Without it the universe
	// is 1 + the largest item id the rows use; NumItems may restate that
	// size, but not exceed it (a 422), since an anonymous universe
	// larger than the rows need would cost the server memory that no
	// body byte pays for. To pad the universe, name its items. The
	// universe may hold at most dataset.MaxItems items.
	Items    []string    `json:"items,omitempty"`
	NumItems int         `json:"numItems,omitempty"`
	Rows     []InlineRow `json:"rows"`
}

// InlineRow is one training row: its item ids and its class label.
type InlineRow struct {
	Items []int `json:"items"`
	Label int   `json:"label"`
}

// toDataset validates and converts the inline payload. Rows are sorted
// and deduplicated here so clients need not care about item order.
func (in *InlineDataset) toDataset() (*dataset.Dataset, error) {
	if in == nil || len(in.Rows) == 0 {
		return nil, errors.New("inline dataset has no rows")
	}
	used := 0 // 1 + the largest item id the rows reference
	for _, r := range in.Rows {
		for _, it := range r.Items {
			if it >= dataset.MaxItems {
				return nil, fmt.Errorf("item id %d beyond the %d-item cap", it, dataset.MaxItems)
			}
			used = max(used, it+1)
		}
	}
	numItems := used
	switch {
	case len(in.Items) > 0:
		numItems = len(in.Items)
	case in.NumItems > used:
		return nil, fmt.Errorf("numItems %d exceeds the %d items the rows use; name the items to pad the universe", in.NumItems, used)
	case in.NumItems != 0:
		numItems = in.NumItems
	}
	if numItems > dataset.MaxItems {
		return nil, fmt.Errorf("%d items exceed the %d-item cap", numItems, dataset.MaxItems)
	}
	d := &dataset.Dataset{ClassNames: in.Classes}
	for i := 0; i < numItems; i++ {
		name := fmt.Sprintf("i%d", i)
		if i < len(in.Items) {
			name = in.Items[i]
		}
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: name, Lo: 0, Hi: 1})
	}
	for _, r := range in.Rows {
		row := append([]int(nil), r.Items...)
		sort.Ints(row)
		dedup := row[:0]
		for i, it := range row {
			if i == 0 || it != row[i-1] {
				dedup = append(dedup, it)
			}
		}
		d.Rows = append(d.Rows, dedup)
		d.Labels = append(d.Labels, dataset.Label(r.Label))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var data jobs.Data
	switch {
	case req.Data != nil && req.Spec.Dataset != "":
		writeError(w, http.StatusBadRequest, "set one of dataset or data, not both")
		return
	case req.Data != nil:
		d, err := req.Data.toDataset()
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "inline dataset: "+err.Error())
			return
		}
		data = jobs.Data{Dataset: d}
	case req.Spec.Dataset != "":
		resolved, ok := s.resolveJobDataset(w, req.Spec.Dataset)
		if !ok {
			return
		}
		data = resolved
	default:
		writeError(w, http.StatusBadRequest, "set one of dataset (registered name) or data (inline rows)")
		return
	}
	rec, err := s.jobs.Submit(req.Spec, data)
	if err != nil {
		writeJobError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]*jobs.Record{"jobs": s.jobs.Jobs()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// resolveJobDataset turns a job submission's dataset reference into
// job data. With a datastore configured the store is consulted first:
// "{name}" resolves the latest snapshot, "{name}@{v}" pins a specific
// version (a pruned version is a 409 — the reference was once valid
// but its snapshot is gone). A name the store does not know falls back
// to the static registered-dataset map, so file-backed -dataset
// serving keeps working unchanged alongside streaming ingestion.
func (s *Server) resolveJobDataset(w http.ResponseWriter, ref string) (jobs.Data, bool) {
	if s.store != nil {
		snap, err := s.store.Resolve(ref)
		switch {
		case err == nil:
			return jobs.Data{
				Dataset:     snap.Dataset,
				Discretizer: snap.Discretizer,
				Name:        snap.Name,
				Version:     snap.Version,
			}, true
		case errors.Is(err, datastore.ErrNotFound):
			// Fall through to the static map.
		default:
			writeDatasetError(w, err)
			return jobs.Data{}, false
		}
	}
	nd, ok := s.datasets[ref]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q (have %v)",
			ref, s.datasetNames()))
		return jobs.Data{}, false
	}
	return jobs.Data{Dataset: nd.Dataset, Discretizer: nd.Discretizer, Name: ref}, true
}

// datasetNames lists every resolvable dataset name: the static map
// plus the datastore's, deduplicated and sorted (for 404 diagnostics).
func (s *Server) datasetNames() []string {
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	if s.store != nil {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			seen[n] = true
		}
		for _, n := range s.store.Names() {
			if !seen[n] {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// writeJobError maps the jobs sentinels onto the HTTP error taxonomy.
func writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrBadSpec):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, jobs.ErrTerminal):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
