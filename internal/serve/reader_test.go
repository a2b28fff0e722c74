package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// fuzzMaxBatch is the batch row limit the reader tests run under; it is
// small so inputs reach it.
const fuzzMaxBatch = 3

// canonicalBodies holds ordinary bodies of each kind the reader
// decodes. The multi-row ones have their values arrays parsed apart
// from the rest: padded with whitespace, empty, absent, first or last
// in a row.
var canonicalBodies = []string{
	streamFixtureCreate,
	`{"rows":[{"values":[2,8],"label":"a"},{"values":[6.5e-3,-1],"label":1}]}`,
	`{"model":"m","values":[1.5,-0,2e10,0.25]}`,
	`{"items":[0,3,7]}`,
	`{"model":"m","rows":[{"values":[1,2]},{"items":[4]},{}]}`,
	` {"name":"sp","classes":[],"genes":["géne","\"q\""],"rows":[]} trailing`,
	`{"name":"mr","classes":["a","b"],"genes":["g0","g1","g2"],"rows":[{"values":[1,2,3],"label":"a"},{"label":1,"values":[ -0 ,4.5E1, 0.125 ]},{"values":[],"label":"b"},{"label":0},{"values":[7,-8e-2,9]}]}`,
	`{"rows":[{"values":[1e-300,2],"label":0},{"values":[3,-4.25]},{"label":"b","values":[	5 ,
6 ]}]}`,
	`{"rows":[{"items":[0],"values":[-0,0]},{"values":[]},{"values":[1.5,2,-3]}],"model":"m"}`,
	// Values for each of reader.float's conversions: Clinger's path
	// (2.5, 1E+2), Eisel–Lemire (17-digit mantissas), zero (-0) and the
	// strconv fallback (subnormals, 25-digit mantissas).
	`{"rows":[{"values":[0.30000000000000004,5e-324,2.5],"label":0},{"values":[-0,1E+2,1234567890123456789012345e-3],"label":"a"}]}`,
	`{"model":"m","rows":[{"values":[-0.0,4.9406564584124654e-324]},{"values":[1E+2,0.1234567890123456789012345,-1.7976931348623157e308]}]}`,
}

// declineBodies lists bodies the reader must decline, so that
// encoding/json decides them. Some of them encoding/json accepts with a
// value the reader would get wrong; the rest it rejects.
var declineBodies = []string{
	// Key spelling: encoding/json folds case.
	`{"Values":[1]}`,
	`{"ROWS":[{"values":[1],"label":"a"}]}`,
	`{"rows":[{"Values":[1],"label":"a"}]}`,
	`{"label":"a"}`,
	`{"values":[1],"extra":1}`,
	// null as a field value, an element or the body.
	`{"values":null}`,
	`{"model":null,"rows":[{"items":[0]}]}`,
	`{"rows":null}`,
	`{"rows":[null]}`,
	`{"rows":[{"values":[1],"label":null}]}`,
	`{"name":"n","classes":["a",null],"genes":[]}`,
	`null`,
	// Repeated keys: a second rows array decodes into the first's rows,
	// and the batch token decoder appends both.
	`{"rows":[{"values":[1],"label":"a"}],"rows":[{"label":"b"}]}`,
	`{"rows":[{"items":[0]}],"rows":[{"items":[1]}]}`,
	`{"values":[1],"values":[2,3]}`,
	`{"model":"a","model":"b","items":[0]}`,
	// Numbers strconv or the JSON grammar rejects.
	`{"values":[1e400]}`,
	`{"values":[Inf]}`,
	`{"values":[0x1p-2]}`,
	`{"values":[+1]}`,
	`{"values":[01]}`,
	`{"values":[1.]}`,
	`{"values":[.5]}`,
	`{"values":[1e]}`,
	`{"values":[-]}`,
	`{"values":[00]}`,
	`{"values":[1_0]}`,
	`{"values":[1e+]}`,
	`{"values":[NaN]}`,
	// Integer fields holding a fraction, an exponent or a value
	// outside int.
	`{"items":[1.0]}`,
	`{"items":[1e2]}`,
	`{"items":[9223372036854775808]}`,
	`{"rows":[{"values":[1],"label":0.5}]}`,
	// Invalid UTF-8 and control bytes in a string.
	"{\"model\":\"\xff\",\"items\":[0]}",
	"{\"name\":\"a\x01b\",\"classes\":[],\"genes\":[]}",
	// Row maxBatch+1 of a batch.
	`{"rows":[{"items":[0]},{"items":[0]},{"items":[0]},{"items":[0]}]}`,
	`{"rows":[{"items":[0]},{"values":[2]},{"values":[3]},{"values":[4]}]}`,
	// A values array, read after the rest of the body, that fails in
	// row 2 or later: a trailing comma, an extra ']', a nested array, a
	// string holding ']', no ']' before the end of the body, a repeated
	// key.
	`{"rows":[{"values":[1]},{"values":[1,]}]}`,
	`{"rows":[{"values":[1]},{"values":[2]},{"values":[1]]}]}`,
	`{"rows":[{"values":[1]},{"values":[[1]]}]}`,
	`{"rows":[{"values":[1],"label":"a"},{"values":[2,"]"],"label":"b"}]}`,
	`{"rows":[{"values":[1]},{"values":[2,3`,
	`{"rows":[{"values":[1]},{"values":[1],"values":[2]}]}`,
	// Broken syntax.
	``,
	`{"values":[1,]}`,
	`{"values":[1] "items":[2]}`,
	`{"values":[1]`,
	`["values"]`,
}

// readerMismatch tries body as each of the reader's four request
// types. It reports whether the reader accepted it as any of them, and
// an error for the first accepted type that the handlers' encoding/json
// path rejects or decodes to a different value.
func readerMismatch(body []byte) (accepted bool, err error) {
	check := func(name string, got, want any, wantErr error) error {
		if wantErr != nil {
			return fmt.Errorf("%s: reader accepted, encoding/json rejects: %v", name, wantErr)
		}
		// DeepEqual tells nil from empty slices; %#v also tells -0 from
		// +0, which DeepEqual treats as equal.
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			return fmt.Errorf("%s: reader %#v, encoding/json %#v", name, got, want)
		}
		return nil
	}
	var errs []error
	for _, newDst := range []func() any{
		func() any { return new(ClassifyRequest) },
		func() any { return new(DatasetCreateRequest) },
		func() any { return new(DatasetAppendRequest) },
	} {
		got := newDst()
		if !readRequest(body, got) {
			continue
		}
		accepted = true
		want := newDst()
		errs = append(errs, check(fmt.Sprintf("%T", got), got, want, decodeStrict(body, want)))
	}
	if got, ok := readBatchRequest(body, fuzzMaxBatch); ok {
		accepted = true
		want, err := decodeBatchTokens(body, fuzzMaxBatch)
		errs = append(errs, check("*BatchRequest", got, want, err))
	}
	for _, err := range errs {
		if err != nil {
			return accepted, err
		}
	}
	return accepted, nil
}

// FuzzRequestDecode tries each input as each of the reader's four
// request bodies. Whenever the reader accepts one, encoding/json (the
// handlers' fallback: a Decoder with DisallowUnknownFields, or for a
// batch the token decoder) must accept the same bytes and give a
// deep-equal value.
func FuzzRequestDecode(f *testing.F) {
	for _, b := range canonicalBodies {
		f.Add([]byte(b))
	}
	for _, b := range declineBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, err := readerMismatch(body); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
	})
}

// TestReaderAcceptsCanonicalBodies: each ordinary body is read by the
// reader, not by the fallback.
func TestReaderAcceptsCanonicalBodies(t *testing.T) {
	for _, b := range canonicalBodies {
		accepted, err := readerMismatch([]byte(b))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !accepted {
			t.Errorf("reader declines canonical body %s", b)
		}
	}
}

// TestReaderDeclines: every listed body falls back to encoding/json.
func TestReaderDeclines(t *testing.T) {
	for _, b := range declineBodies {
		accepted, err := readerMismatch([]byte(b))
		if err != nil {
			t.Fatalf("%q: %v", b, err)
		}
		if accepted {
			t.Errorf("reader accepts %q", b)
		}
	}
}

// FuzzJobRequest decodes a job body and converts its inline dataset.
// Neither step may panic, and every dataset toDataset accepts must be
// valid, within the item cap and, unless its items are named, no wider
// than the items its rows use.
func FuzzJobRequest(f *testing.F) {
	for _, b := range []string{
		`{"kind":"train","data":{"classes":["a","b"],"rows":[{"items":[0,2],"label":0},{"items":[1],"label":1}]}}`,
		`{"kind":"mine","data":{"classes":["a","b"],"items":["x","y"],"rows":[{"items":[1,1,0],"label":1}]}}`,
		`{"kind":"train","data":{"classes":["a","b"],"numItems":3,"rows":[{"items":[5],"label":0}]}}`,
		paddedUniverseBody,
		`{"kind":"train","data":{"classes":["a","b"],"numItems":-4,"rows":[{"items":[],"label":0}]}}`,
		`{"kind":"train","data":{"classes":["a","b"],"rows":[{"items":[1099511627776],"label":0}]}}`,
		`{"kind":"train","data":{"classes":["a"],"rows":[{"items":[-1],"label":-1}]}}`,
		`{"kind":"train","dataset":"d@2","timeout":"1s"}`,
		`{"kind":"train","data":null}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if decodeStrict(body, &req) != nil {
			return
		}
		d, err := req.Data.toDataset()
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("body %q: accepted dataset is invalid: %v", body, err)
		}
		if d.NumItems() > dataset.MaxItems {
			t.Fatalf("body %q: accepted dataset has %d items, cap %d", body, d.NumItems(), dataset.MaxItems)
		}
		used := 0
		for _, row := range d.Rows {
			if len(row) > 0 {
				used = max(used, row[len(row)-1]+1)
			}
		}
		if len(req.Data.Items) == 0 && d.NumItems() > used {
			t.Fatalf("body %q: accepted %d anonymous items for rows that use %d", body, d.NumItems(), used)
		}
	})
}

// pc3Body is the create body of PC/3's training rows, 102 × 4200
// values and about 8.3 MB, labelled by class index as the repository
// benchmark uploads it.
func pc3Body(t testing.TB) []byte {
	t.Helper()
	m, _, err := synth.Generate(synth.Scaled(synth.PC(), 3))
	if err != nil {
		t.Fatal(err)
	}
	type wireRow struct {
		Values []float64 `json:"values"`
		Label  int       `json:"label"`
	}
	rows := make([]wireRow, m.NumRows())
	for r := range rows {
		rows[r] = wireRow{m.Values[r], int(m.Labels[r])}
	}
	b, err := json.Marshal(struct {
		Name    string    `json:"name"`
		Classes []string  `json:"classes"`
		Genes   []string  `json:"genes"`
		Rows    []wireRow `json:"rows"`
	}{"pc3", m.ClassNames, m.GeneNames, rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wideGenesBody declares 100,000 genes, then carries 10,000 rows of one
// value each: a reader that sized rows from the genes list would
// reserve 100,000 floats per row.
func wideGenesBody() []byte {
	var sb strings.Builder
	sb.WriteString(`{"name":"w","classes":["a","b"],"genes":[`)
	for g := 0; g < 100_000; g++ {
		if g > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"g%d"`, g)
	}
	sb.WriteString(`],"rows":[`)
	for r := 0; r < 10_000; r++ {
		if r > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"values":[%d.5],"label":%d}`, r, r%2)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// allocBytes returns the bytes the heap allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReaderAllocatesNoMoreThanUnmarshal decodes the PC/3 create body
// and the wide-genes body both ways: the reader must give the same
// value and allocate no more bytes than json.Unmarshal.
func TestReaderAllocatesNoMoreThanUnmarshal(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("decodes an 8.3 MB body")
	}
	for name, body := range map[string][]byte{"pc3": pc3Body(t), "wide-genes": wideGenesBody()} {
		var got, want DatasetCreateRequest
		var accepted bool
		readerBytes := allocBytes(func() { accepted = readRequest(body, &got) })
		unmarshalBytes := allocBytes(func() {
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
		})
		if !accepted {
			t.Fatalf("%s: the reader declines the body", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reader's value differs from json.Unmarshal's", name)
		}
		t.Logf("%s (%d bytes): reader %d B, json.Unmarshal %d B", name, len(body), readerBytes, unmarshalBytes)
		if readerBytes > unmarshalBytes {
			t.Errorf("%s: reader allocated %d bytes, json.Unmarshal %d", name, readerBytes, unmarshalBytes)
		}
	}
}

// batch16Body returns a batch of the first 16 rows of a create body,
// cut to 420 values: for the PC/3 body, about the 130 KB of a
// classify-open request.
func batch16Body(t testing.TB, create []byte) []byte {
	t.Helper()
	var req DatasetCreateRequest
	if err := json.Unmarshal(create, &req); err != nil {
		t.Fatal(err)
	}
	frags := make([]string, 16)
	for i := range frags {
		v, err := json.Marshal(BatchRow{Values: req.Rows[i].Values[:420]})
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = string(v)
	}
	return []byte(`{"rows":[` + strings.Join(frags, ",") + `]}`)
}

// TestReaderAcrossWorkers: on 2 and 7 goroutines the reader accepts the
// bodies it accepts on one, as the same request types, with the same
// values, -0 and nil slices included.
func TestReaderAcrossWorkers(t *testing.T) {
	create := pc3Body(t)
	batch := batch16Body(t, create)
	bodies := [][]byte{create, batch}
	for _, b := range slices.Concat(canonicalBodies, declineBodies) {
		bodies = append(bodies, []byte(b))
	}
	// decode reads body as each request type, nil where declined.
	decode := func(body []byte, workers int) []any {
		var out []any
		for _, dst := range []any{new(ClassifyRequest), new(DatasetCreateRequest), new(DatasetAppendRequest)} {
			var v any
			if (&reader{b: body, workers: workers}).request(dst) {
				v = reflect.ValueOf(dst).Elem().Interface()
			}
			out = append(out, v)
		}
		var v any
		if req, ok := (&reader{b: body, workers: workers}).batchRequest(DefaultMaxBatch); ok {
			v = req
		}
		return append(out, v)
	}
	for i, body := range bodies {
		want := decode(body, 1)
		if i == 0 && want[1] == nil || i == 1 && want[3] == nil {
			t.Fatalf("body %d: the reader declines it on one goroutine", i)
		}
		for _, workers := range []int{2, 7} {
			got := decode(body, workers)
			if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("body %d (%.60q...): %d goroutines decode it differently from one", i, body, workers)
			}
		}
	}
}

// classify1Body is a single classify of one PC/4 test row, 3,150
// values: the read of the repository benchmark's stream-mixed workload,
// which the reader parses inline.
func classify1Body(t testing.TB) []byte {
	t.Helper()
	_, test, err := synth.Generate(synth.Scaled(synth.PC(), 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ClassifyRequest{Values: test.Values[0]})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkRequestDecode times the reader against encoding/json on the
// PC/3 create body, on batch16Body of it and on classify1Body.
func BenchmarkRequestDecode(b *testing.B) {
	create := pc3Body(b)
	batch := batch16Body(b, create)
	classify := classify1Body(b)
	run := func(name string, body []byte, decode func([]byte) bool) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !decode(body) {
					b.Fatal("decode failed")
				}
			}
		})
	}
	run("create/reader", create, func(body []byte) bool {
		var dst DatasetCreateRequest
		return readRequest(body, &dst)
	})
	run("create/encoding-json", create, func(body []byte) bool {
		var dst DatasetCreateRequest
		return decodeStrict(body, &dst) == nil
	})
	run("batch16/reader", batch, func(body []byte) bool {
		_, ok := readBatchRequest(body, DefaultMaxBatch)
		return ok
	})
	run("batch16/encoding-json", batch, func(body []byte) bool {
		_, err := decodeBatchTokens(body, DefaultMaxBatch)
		return err == nil
	})
	run("classify1/reader", classify, func(body []byte) bool {
		var dst ClassifyRequest
		return readRequest(body, &dst)
	})
	run("classify1/encoding-json", classify, func(body []byte) bool {
		var dst ClassifyRequest
		return decodeStrict(body, &dst) == nil
	})
}
