package datastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// extremeMatrix is sepMatrix's separated g0 beside a g1 of the float64
// values a decimal round trip is most likely to get wrong: the signed
// zero, the smallest subnormals, the largest magnitudes and the
// exponents where strconv switches notation.
func extremeMatrix() *dataset.Matrix {
	m := &dataset.Matrix{
		GeneNames:  []string{"g0", "g1"},
		ClassNames: []string{"a", "b"},
	}
	g1 := []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 0, -5e-324}
	for i, v := range g1 {
		l := dataset.Label(i / 4)
		m.Values = append(m.Values, []float64{float64(1 + 9*int(l) + i%4), v})
		m.Labels = append(m.Labels, l)
	}
	return m
}

// assertSchema2 checks that a snapshot file carries its values packed.
func assertSchema2(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if string(keys["schema"]) != "2" {
		t.Fatalf("%s: schema %s, want 2", path, keys["schema"])
	}
	if _, ok := keys["values"]; ok {
		t.Fatalf("%s: schema 2 file carries number arrays", path)
	}
	if _, ok := keys["packedValues"]; !ok {
		t.Fatalf("%s: no packedValues", path)
	}
}

// TestSnapshotRoundTripBitIdentical persists extreme values and a bare
// dataset, and checks that recovery returns the values bit for bit and
// snapshots deep-equal to the ones persisted.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	m := extremeMatrix()
	snap, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels)
	if err != nil {
		t.Fatal(err)
	}
	assertSchema2(t, s.snapshotPath("d", 1))
	bare, err := s.Create("bare", m.ClassNames, m.GeneNames, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 0)
	for _, want := range []*Snapshot{bare, snap} {
		got, err := s2.Get(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered %s diverges from the one persisted:\n got %+v\nwant %+v", want.Name, got, want)
		}
	}
	got, _ := s2.Get("d")
	for r, row := range m.Values {
		for g, v := range row {
			if w := got.Matrix.Values[r][g]; math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("row %d gene %d recovered as %v (%#x), want %v (%#x)",
					r, g, w, math.Float64bits(w), v, math.Float64bits(v))
			}
		}
	}
	// Recovered rows share one backing array; growing one must not
	// write into the next.
	row0 := got.Matrix.Values[0]
	_ = append(row0, 42)
	if w := got.Matrix.Values[1][0]; w != m.Values[1][0] {
		t.Fatalf("appending to row 0 overwrote row 1: %v", w)
	}
}

// schema1Envelope is the envelope snapshot schema 1 wrote, values as
// nested JSON number arrays.
type schema1Envelope struct {
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

// writeSchema1 rewrites a snapshot's file as schema 1 wrote it.
func writeSchema1(t *testing.T, s *Store, snap *Snapshot) {
	t.Helper()
	data, err := json.Marshal(schema1Envelope{
		Schema:    1,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.snapshotPath(snap.Name, snap.Version), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMixedSchemas recovers a directory holding a schema-1 v1
// beside a schema-2 v2.
func TestRecoverMixedSchemas(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	v1, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0})
	if err != nil {
		t.Fatal(err)
	}
	writeSchema1(t, s, v1)

	s2 := openStore(t, dir, 0)
	for _, want := range []*Snapshot{v1, v2} {
		got, err := s2.GetVersion("d", want.Version)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered v%d diverges from the one persisted", want.Version)
		}
	}
}

// TestAppendAfterLegacyRecoveryWritesSchema2 recovers the schema-1
// fixture, appends, and checks the new version is written as schema 2
// and recovers deep-equal.
func TestAppendAfterLegacyRecoveryWritesSchema2(t *testing.T) {
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
	snap, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0})
	if err != nil {
		t.Fatal(err)
	}
	assertSchema2(t, s.snapshotPath("d", 3))
	if got, err := os.ReadFile(filepath.Join(dir, "d", "v000002.json")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the legacy file changed: %v", err)
	}
	got, err := openStore(t, dir, 0).Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("recovered v3 diverges from the one persisted")
	}
}

// TestRecoverySkipsBadPackedValues damages v2's row count or packed
// values in every way a length check must catch; recovery must skip
// v2 and land on v1.
func TestRecoverySkipsBadPackedValues(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(env *snapshotEnvelope, file []byte) []byte
	}{
		{"truncated file", func(_ *snapshotEnvelope, file []byte) []byte { return file[:len(file)/2] }},
		{"packed one value short", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Packed = env.Packed[:len(env.Packed)-8]
			return nil
		}},
		{"packed one value long", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Packed = append(env.Packed, make([]byte, 8)...)
			return nil
		}},
		{"packed one row long", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Packed = append(env.Packed, env.Packed[:16]...)
			return nil
		}},
		{"packed not whole values", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Packed = env.Packed[:len(env.Packed)-3]
			return nil
		}},
		{"rows one short", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Rows--
			return nil
		}},
		{"rows one long", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Rows++
			return nil
		}},
		{"rows oversized", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Rows = math.MaxInt64 / 8
			return nil
		}},
		{"rows and labels one long", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Rows++
			env.Labels = append(env.Labels, 0)
			return nil
		}},
		{"infinite value", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Packed = append([]byte(nil), env.Packed...)
			copy(env.Packed[8:], []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf
			return nil
		}},
		{"envelope names another version", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Version++
			return nil
		}},
		{"one cut list short", func(env *snapshotEnvelope, _ []byte) []byte {
			env.Cuts = env.Cuts[:len(env.Cuts)-1]
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, 0)
			m := sepMatrix(t)
			v1, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0}); err != nil {
				t.Fatal(err)
			}
			path := s.snapshotPath("d", 2)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var env snapshotEnvelope
			if err := json.Unmarshal(file, &env); err != nil {
				t.Fatal(err)
			}
			damaged := tc.damage(&env, file)
			if damaged == nil {
				if damaged, err = json.Marshal(env); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := loadSnapshot(path, "d", 2); err == nil {
				t.Fatal("damaged v2 loads")
			}
			got, err := openStore(t, dir, 0).Get("d")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v1) {
				t.Fatalf("recovered v%d, want v1 as persisted", got.Version)
			}
		})
	}
}

// TestCreateReportsPersistCause: when the dataset's directory cannot be
// made, Create returns the file system's error wrapped, so a caller can
// match it, and registers nothing.
func TestCreateReportsPersistCause(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Create under a regular file: %v, want ENOTDIR", err)
	}
	if _, err := s.Get("d"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a failed create left a dataset: %v", err)
	}
}

// TestCreateAppendRejectInf checks that ±Inf is a bad request before
// anything is built or written.
func TestCreateAppendRejectInf(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		values := copyValues(m.Values, 2)
		values[5][1] = inf
		if _, err := s.Create("inf", m.ClassNames, m.GeneNames, values, m.Labels); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Create with %v: %v, want ErrBadRequest", inf, err)
		}
	}
	if _, err := s.Get("inf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a rejected create left a dataset: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "inf")); !os.IsNotExist(err) {
		t.Fatalf("a rejected create left a directory: %v", err)
	}

	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatal(err)
	}
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		if _, err := s.Append("d", [][]float64{{2, 2}, {inf, 3}}, []dataset.Label{0, 1}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Append with %v: %v, want ErrBadRequest", inf, err)
		}
	}
	if vs, err := s.Versions("d"); err != nil || !reflect.DeepEqual(vs, []int{1}) {
		t.Fatalf("versions %v (%v) after rejected appends, want [1]", vs, err)
	}
	if _, err := os.Stat(s.snapshotPath("d", 2)); !os.IsNotExist(err) {
		t.Fatalf("a rejected append wrote v2: %v", err)
	}
}

// maxAllocPerFileByte bounds what decoding may allocate per byte of
// the file, beside a fixed 64 KiB. Crafted files of 100,000 rows,
// genes or cuts each written in the fewest bytes JSON allows come to
// 37–75 bytes per file byte, most of it the items and rows of the
// transformed dataset; a count taken on trust would be unbounded.
const maxAllocPerFileByte = 128

// FuzzLoadSnapshot decodes arbitrary snapshot files. Decoding must not
// panic or allocate more than a fixed multiple of the file's length,
// and every snapshot it accepts must persist and reload deep-equal.
func FuzzLoadSnapshot(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-v000002.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	s := openStore(f, f.TempDir(), 0)
	m := sepMatrix(f)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0}); err != nil {
		f.Fatal(err)
	}
	current, err := os.ReadFile(s.snapshotPath("d", 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(current)
	f.Add(bytes.Replace(current, []byte(`"rows":9`), []byte(`"rows":1152921504606846975`), 1))
	f.Add([]byte(`{"schema":2,"kind":"rcbt-dataset-snapshot","name":"d","version":2,"classes":["a","b"],"genes":["g"],"labels":[0,1],"rows":2,"packedValues":"AAAAAAAA8D8AAAAAAAAAQA==","cuts":[[1.5]]}`))
	f.Add([]byte(`{"schema":2,"kind":"rcbt-dataset-snapshot","name":"d","version":2,"classes":["a","b"],"genes":[],"labels":[0,1],"rows":1048576,"packedValues":"","cuts":[]}`))
	f.Add([]byte(`{"schema":1,"kind":"rcbt-dataset-snapshot","name":"d","version":2,"classes":["a","b"],"genes":["g"],"labels":[0,1],"values":[[1],[2]],"cuts":[[1.5]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := decodeSnapshot(data, "d", 2)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxAllocPerFileByte*len(data)+64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if err := s.persist(snap); err != nil {
			t.Fatalf("persist an accepted snapshot: %v", err)
		}
		again, err := loadSnapshot(s.snapshotPath("d", 2), "d", 2)
		if err != nil {
			t.Fatalf("reload a persisted snapshot: %v", err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("reloaded snapshot diverges:\n got %+v\nwant %+v", again, snap)
		}
	})
}

// BenchmarkSnapshot times what one snapshot of PC/3's training rows
// (102 × 4,200 values, the train-wide benchmark's create) costs to
// encode, to write through atomicfile with its fsyncs, and to load as
// recovery does.
func BenchmarkSnapshot(b *testing.B) {
	m, _, err := synth.Generate(synth.Scaled(synth.PC(), 3))
	if err != nil {
		b.Fatal(err)
	}
	s := openStore(b, b.TempDir(), 0)
	snap, err := s.Create("pc3", m.ClassNames, m.GeneNames, m.Values, m.Labels)
	if err != nil {
		b.Fatal(err)
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	path := s.snapshotPath("pc3", 1)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := atomicfile.Write(path, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := loadSnapshot(path, "pc3", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
