package datastore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/discretize"
)

// sepMatrix builds a small matrix with one perfectly separated gene
// (values < 5 ↔ class a, > 5 ↔ class b — MDL accepts the cut at the
// class boundary midpoint) and one noise gene MDL drops.
func sepMatrix(t *testing.T) *dataset.Matrix {
	t.Helper()
	return &dataset.Matrix{
		GeneNames:  []string{"g0", "g1"},
		ClassNames: []string{"a", "b"},
		Values: [][]float64{
			{1, 3}, {2, 1}, {3, 4}, {4, 1},
			{10, 5}, {11, 9}, {12, 2}, {13, 6},
		},
		Labels: []dataset.Label{0, 0, 0, 0, 1, 1, 1, 1},
	}
}

func openStore(t *testing.T, dir string, keep int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, KeepVersions: keep})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// assertOracle checks a store-built snapshot against a from-scratch
// fit+transform of the same matrix: identical cuts, identical dataset.
func assertOracle(t *testing.T, snap *Snapshot) {
	t.Helper()
	dz, err := discretize.FitMatrix(snap.Matrix)
	if err != nil {
		t.Fatalf("oracle fit: %v", err)
	}
	if !reflect.DeepEqual(snap.Discretizer.Cuts, dz.Cuts) {
		t.Fatalf("v%d cuts diverge from fresh fit:\n got %v\nwant %v",
			snap.Version, snap.Discretizer.Cuts, dz.Cuts)
	}
	want, err := dz.Transform(snap.Matrix)
	if err != nil {
		t.Fatalf("oracle transform: %v", err)
	}
	got := snap.Dataset
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("v%d item table diverges from fresh transform", snap.Version)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("v%d rows diverge:\n got %v\nwant %v", snap.Version, got.Rows, want.Rows)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("v%d labels diverge", snap.Version)
	}
	if !reflect.DeepEqual(got.ClassNames, want.ClassNames) {
		t.Fatalf("v%d class names diverge", snap.Version)
	}
	// The transposed index must match a from-scratch build too.
	for i := range got.Items {
		if !got.ItemRows(i).Equal(want.ItemRows(i)) {
			t.Fatalf("v%d item %d row set diverges from fresh index", snap.Version, i)
		}
	}
}

func TestCreateGetResolve(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	m := sepMatrix(t)
	snap, err := s.Create("leukemia", m.ClassNames, m.GeneNames, m.Values, m.Labels)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if snap.Version != 1 || snap.Name != "leukemia" {
		t.Fatalf("created %s v%d, want leukemia v1", snap.Name, snap.Version)
	}
	assertOracle(t, snap)

	if _, err := s.Create("leukemia", m.ClassNames, m.GeneNames, nil, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v, want ErrNotFound", err)
	}
	if _, err := s.Resolve("leukemia"); err != nil {
		t.Fatalf("Resolve latest: %v", err)
	}
	if got, err := s.Resolve("leukemia@1"); err != nil || got.Version != 1 {
		t.Fatalf("Resolve pinned: %v (v%d)", err, got.Version)
	}
	if _, err := s.Resolve("leukemia@2"); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("Resolve future version: %v, want ErrVersionGone", err)
	}
	for _, ref := range []string{"leukemia@0", "leukemia@x", "@1", "bad/name", "-lead"} {
		if _, err := s.Resolve(ref); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Resolve(%q): %v, want ErrBadRequest", ref, err)
		}
	}
	if names := s.Names(); len(names) != 1 || names[0] != "leukemia" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCreateValidation(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	cases := []struct {
		name           string
		classes, genes []string
	}{
		{"bad name!", []string{"a", "b"}, []string{"g"}},
		{"", []string{"a", "b"}, []string{"g"}},
		{"ok", []string{"a"}, []string{"g"}},
		{"ok", []string{"a", "b"}, nil},
	}
	for _, c := range cases {
		if _, err := s.Create(c.name, c.classes, c.genes, nil, nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Create(%q,%v,%v): %v, want ErrBadRequest", c.name, c.classes, c.genes, err)
		}
	}
	// A row/label shape error must not leave a half-registered set.
	if _, err := s.Create("shape", []string{"a", "b"}, []string{"g"},
		[][]float64{{1}}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("shape mismatch: %v, want ErrBadRequest", err)
	}
	if _, err := s.Get("shape"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed create left set registered: %v", err)
	}
}

// TestAppendCutsUnchanged appends rows that leave every gene's cuts
// intact and asserts the refresh stats and the oracle.
func TestAppendCutsUnchanged(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	m := sepMatrix(t)
	snap, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Values interior to existing intervals: g0's midpoint cut (4+10)/2=7
	// is unmoved by another 2 on the left and 12 on the right.
	snap2, err := s.Append("d", [][]float64{{2, 8}, {12, 3}}, []dataset.Label{0, 1})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if snap2.Version != 2 {
		t.Fatalf("append produced v%d, want v2", snap2.Version)
	}
	if snap2.Refresh.AppendedRows != 2 || snap2.Refresh.ChangedGenes != 0 {
		t.Fatalf("refresh stats %+v", snap2.Refresh)
	}
	assertOracle(t, snap2)
	// v1 stays immutable.
	if snap.Dataset.NumRows() != 8 || snap.Version != 1 {
		t.Fatalf("append mutated v1: %d rows", snap.Dataset.NumRows())
	}
}

// TestAppendCutChange appends a row that moves one gene's cut point
// and asserts the changed-gene count and the oracle.
func TestAppendCutChange(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	// Two separated genes with different boundaries.
	m := &dataset.Matrix{
		GeneNames:  []string{"g0", "g1"},
		ClassNames: []string{"a", "b"},
		Values: [][]float64{
			{1, 100}, {2, 101}, {3, 102}, {4, 103},
			{10, 200}, {11, 201}, {12, 202}, {13, 203},
		},
		Labels: []dataset.Label{0, 0, 0, 0, 1, 1, 1, 1},
	}
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// g0 value 6 (class a) moves its boundary midpoint from (4+10)/2=7
	// to (6+10)/2=8; g1 value 103 duplicates an existing value, so its
	// midpoint stays (103+200)/2=151.5.
	snap, err := s.Append("d", [][]float64{{6, 103}}, []dataset.Label{0})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if snap.Refresh.ChangedGenes != 1 {
		t.Fatalf("refresh stats %+v, want 1 changed gene", snap.Refresh)
	}
	assertOracle(t, snap)
}

// TestPropertyIncrementalEqualsBatch is the oracle property test: any
// interleaving of appends over random matrices produces exactly the
// dataset a batch load of the final matrix would.
func TestPropertyIncrementalEqualsBatch(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		genes := 1 + rng.Intn(5)
		classes := 2 + rng.Intn(2)
		total := 2 + rng.Intn(28)

		geneNames := make([]string, genes)
		for g := range geneNames {
			geneNames[g] = "g" + string(rune('A'+g))
		}
		classNames := []string{"c0", "c1", "c2"}[:classes]
		values := make([][]float64, total)
		labels := make([]dataset.Label, total)
		for r := range values {
			row := make([]float64, genes)
			for g := range row {
				// Coarse grid: ties and class correlation are common, so
				// cut sets both change and persist across appends.
				row[g] = float64(rng.Intn(7)) + 0.5*float64(rng.Intn(2))
			}
			values[r] = row
			labels[r] = dataset.Label(rng.Intn(classes))
		}

		s := openStore(t, t.TempDir(), 0)
		initial := rng.Intn(total + 1)
		snap, err := s.Create("p", classNames, geneNames, values[:initial], labels[:initial])
		if err != nil {
			t.Logf("seed %d: create: %v", seed, err)
			return false
		}
		at := initial
		for at < total {
			chunk := 1 + rng.Intn(total-at)
			snap, err = s.Append("p", values[at:at+chunk], labels[at:at+chunk])
			if err != nil {
				t.Logf("seed %d: append: %v", seed, err)
				return false
			}
			at += chunk
		}

		dz, err := discretize.FitMatrix(&dataset.Matrix{
			GeneNames: geneNames, ClassNames: classNames, Values: values, Labels: labels,
		})
		if err != nil {
			t.Logf("seed %d: batch fit: %v", seed, err)
			return false
		}
		want, err := dz.Transform(snap.Matrix)
		if err != nil {
			t.Logf("seed %d: batch transform: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(snap.Discretizer.Cuts, dz.Cuts) {
			t.Logf("seed %d: cuts diverge", seed)
			return false
		}
		if !reflect.DeepEqual(snap.Dataset.Rows, want.Rows) ||
			!reflect.DeepEqual(snap.Dataset.Items, want.Items) ||
			!reflect.DeepEqual(snap.Dataset.Labels, want.Labels) {
			t.Logf("seed %d: dataset diverges", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatalf("Create: %v", err)
	}
	snap, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}

	// A new store over the same directory sees the same latest version.
	s2 := openStore(t, dir, 0)
	got, err := s2.Get("d")
	if err != nil {
		t.Fatalf("recovered Get: %v", err)
	}
	if got.Version != snap.Version {
		t.Fatalf("recovered v%d, want v%d", got.Version, snap.Version)
	}
	if !reflect.DeepEqual(got.Dataset.Rows, snap.Dataset.Rows) ||
		!reflect.DeepEqual(got.Discretizer.Cuts, snap.Discretizer.Cuts) ||
		!reflect.DeepEqual(got.Matrix.Values, snap.Matrix.Values) {
		t.Fatal("recovered snapshot diverges from the one persisted")
	}
	if vs, err := s2.Versions("d"); err != nil || !reflect.DeepEqual(vs, []int{1, 2}) {
		t.Fatalf("recovered versions %v (%v), want [1 2]", vs, err)
	}
	// And appends keep working from the recovered state.
	snap3, err := s2.Append("d", [][]float64{{5, 2}}, []dataset.Label{1})
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	assertOracle(t, snap3)
}

// TestCrashMidAppendRecovery plants the debris a crash mid-append can
// leave — a stray staging file and a corrupt newest snapshot — and
// asserts recovery lands on the latest complete version and deletes
// the staging file.
func TestCrashMidAppendRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	setDir := filepath.Join(dir, "d")
	stray := filepath.Join(setDir, "v000003.json.123.tmp")
	if err := os.WriteFile(stray, []byte("{\"half\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt "newest" file (disk mishap, not a torn rename) must be
	// skipped in favor of the next older complete version.
	if err := os.WriteFile(filepath.Join(setDir, "v000003.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 0)
	got, err := s2.Get("d")
	if err != nil {
		t.Fatalf("recovered Get: %v", err)
	}
	if got.Version != 2 {
		t.Fatalf("recovered v%d, want v2 (corrupt v3 skipped)", got.Version)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray staging file survived recovery: %v", err)
	}
	// The next append must supersede the corrupt file cleanly.
	snap, err := s2.Append("d", [][]float64{{2, 2}}, []dataset.Label{0})
	if err != nil {
		t.Fatalf("append over corrupt v3: %v", err)
	}
	if snap.Version != 3 {
		t.Fatalf("append produced v%d, want v3", snap.Version)
	}
	assertOracle(t, snap)
	s3 := openStore(t, dir, 0)
	if got, err := s3.Get("d"); err != nil || got.Version != 3 {
		t.Fatalf("re-recovered %v v%d, want v3", err, got.Version)
	}
}

// TestRecoverLegacySnapshot recovers a schema-1 snapshot written while
// appends could still skip the from-scratch rebuild, and appends to it.
// The file (testdata/legacy-v000002.json) is sepMatrix plus two
// appended rows; its refresh object carries a key this version no
// longer writes and a set fastPath flag.
func TestRecoverLegacySnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-v000002.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d", "v000002.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir, 0)
	got, err := s.Get("d")
	if err != nil {
		t.Fatalf("recovered Get: %v", err)
	}
	if got.Version != 2 {
		t.Fatalf("recovered v%d, want v2", got.Version)
	}
	m := sepMatrix(t)
	wantValues := append(m.Values, []float64{2, 8}, []float64{12, 3})
	wantLabels := append(m.Labels, 0, 1)
	if !reflect.DeepEqual(got.Matrix.Values, wantValues) || !reflect.DeepEqual(got.Matrix.Labels, wantLabels) {
		t.Fatalf("recovered matrix %v %v, want %v %v",
			got.Matrix.Values, got.Matrix.Labels, wantValues, wantLabels)
	}
	if want := [][]float64{{7}, nil}; !reflect.DeepEqual(got.Discretizer.Cuts, want) {
		t.Fatalf("recovered cuts %v, want %v", got.Discretizer.Cuts, want)
	}
	// g0 splits at 7 into items 0 ([-inf,7)) and 1 ([7,+inf)); g1 has
	// no cut and no items.
	wantRows := [][]int{{0}, {0}, {0}, {0}, {1}, {1}, {1}, {1}, {0}, {1}}
	if !reflect.DeepEqual(got.Dataset.Rows, wantRows) {
		t.Fatalf("recovered rows %v, want %v", got.Dataset.Rows, wantRows)
	}
	assertOracle(t, got)
	if got.Refresh.AppendedRows != 2 || got.Refresh.BuildNanos != 21289 {
		t.Fatalf("recovered refresh stats %+v", got.Refresh)
	}

	snap, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0})
	if err != nil {
		t.Fatalf("append after legacy recovery: %v", err)
	}
	if snap.Version != 3 {
		t.Fatalf("append produced v%d, want v3", snap.Version)
	}
	assertOracle(t, snap)
}

// TestConcurrentAppendsAndReads drives one dataset from several
// goroutines, as the HTTP layer does: appenders each add one row while
// readers resolve pinned and latest versions and read their item
// index. Versions must come out gapless, each holding its
// predecessor's rows plus one, and every version must match the
// oracle.
func TestConcurrentAppendsAndReads(t *testing.T) {
	const appenders, readers = 12, 4
	s := openStore(t, t.TempDir(), 0)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatalf("Create: %v", err)
	}
	base := m.NumRows()

	done := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				latest, err := s.Get("d")
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if n := latest.Matrix.NumRows(); n != base+latest.Version-1 {
					t.Errorf("latest v%d has %d rows, want %d", latest.Version, n, base+latest.Version-1)
					return
				}
				v := 1 + rng.Intn(latest.Version)
				snap, err := s.Resolve(fmt.Sprintf("d@%d", v))
				if err != nil {
					t.Errorf("Resolve d@%d: %v", v, err)
					return
				}
				if snap.Version != v || snap.Matrix.NumRows() != base+v-1 {
					t.Errorf("d@%d resolved to v%d with %d rows", v, snap.Version, snap.Matrix.NumRows())
					return
				}
				// Snapshots are shared; their item index is built on
				// first use, possibly by several readers at once.
				for i := 0; i < snap.Dataset.NumItems(); i++ {
					snap.Dataset.ItemRows(i)
				}
			}
		}(int64(i))
	}

	var awg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		awg.Add(1)
		go func(i int) {
			defer awg.Done()
			// g1 carries a value unique to this appender, so the final
			// matrix shows whether every row landed exactly once.
			row := []float64{float64(1 + i%13), float64(100 + i)}
			if _, err := s.Append("d", [][]float64{row}, []dataset.Label{dataset.Label(i % 2)}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	awg.Wait()
	close(done)
	rwg.Wait()
	if t.Failed() {
		return
	}

	vs, err := s.Versions("d")
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	want := make([]int, appenders+1)
	for i := range want {
		want[i] = i + 1
	}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("versions %v, want %v", vs, want)
	}
	var prev *Snapshot
	for _, v := range vs {
		snap, err := s.GetVersion("d", v)
		if err != nil {
			t.Fatalf("GetVersion %d: %v", v, err)
		}
		if prev != nil && !reflect.DeepEqual(snap.Matrix.Values[:prev.Matrix.NumRows()], prev.Matrix.Values) {
			t.Fatalf("v%d does not extend v%d", v, prev.Version)
		}
		assertOracle(t, snap)
		prev = snap
	}
	seen := map[float64]int{}
	for _, row := range prev.Matrix.Values[base:] {
		seen[row[1]]++
	}
	for i := 0; i < appenders; i++ {
		if seen[float64(100+i)] != 1 {
			t.Fatalf("appended row %d present %d times in v%d", i, seen[float64(100+i)], prev.Version)
		}
	}
}

func TestPruneAndVersionGone(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 2)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("d", [][]float64{{2, 1}}, []dataset.Label{0}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	vs, err := s.Versions("d")
	if err != nil || !reflect.DeepEqual(vs, []int{3, 4}) {
		t.Fatalf("versions %v (%v), want [3 4]", vs, err)
	}
	if _, err := s.GetVersion("d", 1); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("pruned version: %v, want ErrVersionGone", err)
	}
	if _, err := s.Resolve("d@2"); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("pruned ref: %v, want ErrVersionGone", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "d", "v000001.json")); !os.IsNotExist(err) {
		t.Fatal("pruned snapshot file still on disk")
	}
	// Recovery respects the retention cap too.
	s2 := openStore(t, dir, 2)
	if vs, err := s2.Versions("d"); err != nil || !reflect.DeepEqual(vs, []int{3, 4}) {
		t.Fatalf("recovered versions %v (%v), want [3 4]", vs, err)
	}
}

func TestParseRef(t *testing.T) {
	for _, c := range []struct {
		ref  string
		name string
		ver  int
		ok   bool
	}{
		{"d", "d", 0, true},
		{"data.set-1", "data.set-1", 0, true},
		{"d@3", "d", 3, true},
		{"d@0", "", 0, false},
		{"d@-1", "", 0, false},
		{"d@", "", 0, false},
		{"@3", "", 0, false},
		{"a/b", "", 0, false},
	} {
		name, ver, err := ParseRef(c.ref)
		if c.ok && (err != nil || name != c.name || ver != c.ver) {
			t.Errorf("ParseRef(%q) = %q,%d,%v want %q,%d", c.ref, name, ver, err, c.name, c.ver)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseRef(%q) accepted, want error", c.ref)
		}
	}
}
