package serve

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// The request reader decodes the four hot request bodies
// (DatasetCreateRequest, DatasetAppendRequest, ClassifyRequest and
// BatchRequest) from the buffered body. encoding/json scans every byte
// twice and fills each value through reflection; on a wide dataset
// body that is most of the upload.
//
// A body with rows (create, append and batch) is read in two passes,
// since strconv.ParseFloat is most of the work. The structure pass
// reads everything but the rows' values arrays and records each of
// them as a span of offsets, from its '[' to just past the first ']'
// after it: a number cannot contain ']', so in every array the reader
// accepts that one closes it. Then up to GOMAXPROCS goroutines parse
// the spans, each into its own row's slot, taking rows from a shared
// counter; a body with fewer than two rows is parsed inline. A span
// that does not parse, or does not end exactly at its ']', declines the
// whole body, so encoding/json decides that body's status and message
// as it decides every other decline, and what the reader accepts, with
// the values it gives, does not depend on the split or on the number of
// goroutines.
//
// The reader accepts only what it decodes exactly as the handlers'
// encoding/json path does, and declines everything else; the handlers
// then run that path on the same bytes, so every status and message
// stays as encoding/json decides. It declines
//
//   - a key not spelled exactly as its tag (encoding/json folds case),
//     an unknown key, and a key repeated in one object (encoding/json
//     decodes a second array into the elements of the first, and the
//     batch token decoder appends both);
//   - null anywhere;
//   - a string that is not valid UTF-8 (encoding/json substitutes
//     U+FFFD);
//   - a number strconv rejects (1e400), and an integer field holding a
//     fraction, an exponent or a value outside int;
//   - row maxBatch+1 of a batch, which the token decoder answers with
//     413.
//
// Numbers go through strconv.ParseFloat(lit, 64) and
// strconv.ParseInt(lit, 10, 64), the calls encoding/json makes, so
// every value is bit-identical. Plain printable ASCII strings are taken
// as they are; a string with escapes or other bytes goes through
// json.Unmarshal. An empty array is an empty non-nil slice and an
// absent field stays nil, except batch rows, which the token decoder
// appends one by one. Bytes after the top-level value are ignored, as
// json.Decoder.Decode ignores them. Slices grow as elements arrive and
// spans as rows do, and a values array is collected in its goroutine's
// scratch buffer and copied out at its length; nothing is sized from a
// count the body declares.

// readRequest decodes body into dst when dst is one of the reader's
// request types and the reader accepts body. Otherwise it leaves dst
// untouched and reports false.
func readRequest(body []byte, dst any) bool {
	return newReader(body).request(dst)
}

// readBatchRequest decodes a batch body of at most maxB rows, or
// reports false.
func readBatchRequest(body []byte, maxB int) (*BatchRequest, bool) {
	req, ok := newReader(body).batchRequest(maxB)
	if !ok {
		return nil, false
	}
	return &req, true
}

// newReader returns a reader of body that parses values arrays on
// GOMAXPROCS goroutines at most.
func newReader(body []byte) *reader {
	return &reader{b: body, workers: runtime.GOMAXPROCS(0)}
}

// request is readRequest on r.
func (r *reader) request(dst any) bool {
	switch dst := dst.(type) {
	case *ClassifyRequest:
		return fill(dst, r.classifyRequest)
	case *DatasetCreateRequest:
		return fill(dst, r.datasetCreate)
	case *DatasetAppendRequest:
		return fill(dst, r.datasetAppend)
	}
	return false
}

// fill sets *dst to what read returns when read accepts.
func fill[T any](dst *T, read func() (T, bool)) bool {
	v, ok := read()
	if ok {
		*dst = v
	}
	return ok
}

var (
	classifyKeys = []string{"model", "values", "items"}
	batchKeys    = []string{"model", "rows"}
	batchRowKeys = []string{"values", "items"}
	createKeys   = []string{"name", "classes", "genes", "rows"}
	appendKeys   = []string{"rows"}
	rowKeys      = []string{"values", "label"}
)

func (r *reader) classifyRequest() (req ClassifyRequest, ok bool) {
	ok = r.object(classifyKeys, func(key string) (ok bool) {
		switch key {
		case "model":
			req.Model, ok = r.str()
		case "values":
			req.Values, ok = r.floats()
		case "items":
			req.Items, ok = list(r, r.integer)
		}
		return ok
	})
	return req, ok
}

func (r *reader) batchRequest(maxB int) (req BatchRequest, ok bool) {
	ok = r.object(batchKeys, func(key string) (ok bool) {
		switch key {
		case "model":
			req.Model, ok = r.str()
		case "rows":
			ok = r.array(func() bool {
				if len(req.Rows) >= maxB {
					return false
				}
				row, ok := r.batchRow()
				req.Rows = append(req.Rows, row)
				return ok
			}) && parseValues(r, req.Rows, func(row *BatchRow) *[]float64 { return &row.Values })
		}
		return ok
	})
	return req, ok
}

func (r *reader) batchRow() (row BatchRow, ok bool) {
	var sp span
	ok = r.object(batchRowKeys, func(key string) (ok bool) {
		switch key {
		case "values":
			sp, ok = r.valuesSpan()
		case "items":
			row.Items, ok = list(r, r.integer)
		}
		return ok
	})
	r.spans = append(r.spans, sp)
	return row, ok
}

func (r *reader) datasetCreate() (req DatasetCreateRequest, ok bool) {
	ok = r.object(createKeys, func(key string) (ok bool) {
		switch key {
		case "name":
			req.Name, ok = r.str()
		case "classes":
			req.Classes, ok = list(r, r.str)
		case "genes":
			req.Genes, ok = list(r, r.str)
		case "rows":
			req.Rows, ok = r.datasetRows()
		}
		return ok
	})
	return req, ok
}

func (r *reader) datasetAppend() (req DatasetAppendRequest, ok bool) {
	ok = r.object(appendKeys, func(string) (ok bool) {
		req.Rows, ok = r.datasetRows()
		return ok
	})
	return req, ok
}

// datasetRows reads an array of dataset rows, then parses their values.
func (r *reader) datasetRows() ([]DatasetRow, bool) {
	rows, ok := list(r, r.datasetRow)
	return rows, ok && parseValues(r, rows, func(row *DatasetRow) *[]float64 { return &row.Values })
}

func (r *reader) datasetRow() (row DatasetRow, ok bool) {
	var sp span
	ok = r.object(rowKeys, func(key string) (ok bool) {
		switch key {
		case "values":
			sp, ok = r.valuesSpan()
		case "label":
			row.Label, ok = r.label()
		}
		return ok
	})
	r.spans = append(r.spans, sp)
	return row, ok
}

// label reads a class name or a class index, as RowLabel.UnmarshalJSON
// does.
func (r *reader) label() (RowLabel, bool) {
	if r.peek() == '"' {
		s, ok := r.str()
		return RowLabel{name: s, set: true}, ok
	}
	n, ok := r.integer()
	return RowLabel{index: n, isIdx: true, set: true}, ok
}

// reader is a cursor over a request body. Each step skips the
// whitespace before its token and reports false when the bytes there
// are not what it reads.
type reader struct {
	b []byte
	i int
	// scratch collects the numbers of one values array.
	scratch []float64
	// spans holds one entry per row read so far, in order: the row's
	// values array, or the zero span when it has none.
	spans []span
	// workers bounds the goroutines that parse the spans.
	workers int
}

// span is a values array in the body, from its '[' to just past its
// ']'. The zero span marks a row without one.
type span struct{ start, end int }

// valuesSpan steps over a values array and returns its span. It checks
// only the brackets; parseValues parses what lies between them.
func (r *reader) valuesSpan() (span, bool) {
	if r.peek() != '[' {
		return span{}, false
	}
	end := bytes.IndexByte(r.b[r.i:], ']')
	if end < 0 {
		return span{}, false
	}
	sp := span{r.i, r.i + end + 1}
	r.i = sp.end
	return sp, true
}

// parseValues parses the values array of each of rows, whose spans are
// r.spans in the same order, into the slot values returns for the row.
// It runs on up to r.workers goroutines, each taking rows from a shared
// counter, and inline when there are fewer than two rows. It reports
// false when any array does not parse as floats parses it, or does not
// end at its span's end.
func parseValues[T any](r *reader, rows []T, values func(*T) *[]float64) bool {
	spans := r.spans[:len(rows)]
	parse := func(i int, scratch *[]float64) bool {
		sp := spans[i]
		if sp.end == 0 {
			return true
		}
		s := reader{b: r.b[:sp.end], i: sp.start, scratch: *scratch}
		vals, ok := s.floats()
		*scratch = s.scratch
		*values(&rows[i]) = vals
		return ok && s.i == sp.end
	}
	workers := min(r.workers, len(spans))
	if workers < 2 {
		for i := range spans {
			if !parse(i, &r.scratch) {
				return false
			}
		}
		return true
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []float64
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				if !parse(i, &scratch) {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// consume steps over c if it is the next byte after whitespace.
func (r *reader) consume(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.i++
	return true
}

// object reads an object whose keys are each one of keys, spelled
// exactly and given at most once, and calls field with each key to
// read its value.
func (r *reader) object(keys []string, field func(key string) bool) bool {
	if !r.consume('{') {
		return false
	}
	if r.consume('}') {
		return true
	}
	var seen uint
	for {
		k := r.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !r.consume(':') || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if !r.consume(',') {
			return r.consume('}')
		}
	}
}

// key reads an object key and returns its index in keys, or -1. A key
// is compared byte for byte, so one with escapes matches nothing.
func (r *reader) key(keys []string) int {
	if r.peek() != '"' {
		return -1
	}
	start := r.i + 1
	end := start
	for end < len(r.b) && r.b[end] != '"' {
		end++
	}
	if end == len(r.b) {
		return -1
	}
	r.i = end + 1
	for k, want := range keys {
		if string(r.b[start:end]) == want {
			return k
		}
	}
	return -1
}

// array reads an array, calling elem to read each element.
func (r *reader) array(elem func() bool) bool {
	if !r.consume('[') {
		return false
	}
	if r.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.consume(',') {
			return r.consume(']')
		}
	}
}

// list reads an array of the elements elem reads; [] gives an empty
// slice, not nil.
func list[T any](r *reader, elem func() (T, bool)) ([]T, bool) {
	out := []T{}
	ok := r.array(func() bool {
		v, ok := elem()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// floats reads an array of numbers. It collects them in the scratch
// buffer and returns a copy of exactly their count, so a long row is
// copied once instead of regrown.
func (r *reader) floats() ([]float64, bool) {
	r.scratch = r.scratch[:0]
	ok := r.array(func() bool {
		f, ok := r.float()
		r.scratch = append(r.scratch, f)
		return ok
	})
	out := make([]float64, len(r.scratch))
	copy(out, r.scratch)
	return out, ok
}

// str reads a string.
func (r *reader) str() (string, bool) {
	if r.peek() != '"' {
		return "", false
	}
	plain := true
	for j := r.i + 1; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			tok := r.b[r.i : j+1]
			r.i = j + 1
			if plain {
				return string(tok[1 : len(tok)-1]), true
			}
			var s string
			return s, utf8.Valid(tok) && json.Unmarshal(tok, &s) == nil
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the string
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return "", false
}

func (r *reader) float() (float64, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

func (r *reader) integer() (int, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return int(n), err == nil && int64(int(n)) == n
}

// number reads a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv alone does
// not check it: ParseFloat also takes Inf, 0x1p-2, +1 and 01.
func (r *reader) number() ([]byte, bool) {
	r.peek()
	b, start := r.b, r.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	r.i = i
	return b[start:i], true
}

// digits returns the index past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
