package benchmark

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// The four shapes. scale divides gene counts (and the classify pool)
// further; the smoke test runs at scale 20, every recorded run at 1.

// wideProfile is PC/3: 102 rows × 4200 genes, where FindLB dominates
// training.
func wideProfile(scale int) synth.Profile { return synth.Scaled(synth.PC(), 3*scale) }

// tallProfile is PC/30 with a 4× cohort: 408 rows × 420 genes, where
// mining dominates training (the serving fixture's shape).
func tallProfile(scale int) synth.Profile {
	p := synth.Scaled(synth.PC(), 30*scale)
	p.Train1 *= 4
	p.Train0 *= 4
	return p
}

// streamProfile is PC/4: 102 rows × 3150 genes.
func streamProfile(scale int) synth.Profile { return synth.Scaled(synth.PC(), 4*scale) }

// generate draws a profile's matrices. Changing only the test-split
// sizes leaves the training rows unchanged: synth draws them first.
func generate(p synth.Profile) (train, test *dataset.Matrix, err error) {
	train, test, err = synth.Generate(p)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	return train, test, nil
}

// seededRand returns the request-draw RNG: seed 0 falls back to the
// profile's built-in seed.
func seededRand(seed int64, p synth.Profile) *rand.Rand {
	if seed == 0 {
		seed = p.Seed
	}
	return rand.New(rand.NewSource(seed))
}

// wireRow is one row on the wire: raw values, plus the class index in
// dataset bodies.
type wireRow struct {
	Values []float64 `json:"values"`
	Label  *int      `json:"label,omitempty"`
}

// encodeRows pre-encodes every row of m once, so request bodies are
// assembled by copying instead of formatting floats while measuring.
func encodeRows(m *dataset.Matrix, labeled bool) ([][]byte, error) {
	out := make([][]byte, m.NumRows())
	for r, vals := range m.Values {
		w := wireRow{Values: vals}
		if labeled {
			l := int(m.Labels[r])
			w.Label = &l
		}
		b, err := json.Marshal(w)
		if err != nil {
			return nil, err
		}
		out[r] = b
	}
	return out, nil
}

// joinRows appends prefix, the fragments at idx separated by commas,
// and suffix to dst.
func joinRows(dst []byte, prefix string, frags [][]byte, idx []int, suffix string) []byte {
	dst = append(dst, prefix...)
	for k, i := range idx {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, frags[i]...)
	}
	return append(dst, suffix...)
}

// datasetHeader encodes the schema part of a dataset create body.
func datasetHeader(name string, m *dataset.Matrix) (string, error) {
	b, err := json.Marshal(struct {
		Name    string   `json:"name"`
		Classes []string `json:"classes"`
		Genes   []string `json:"genes"`
	}{name, m.ClassNames, m.GeneNames})
	if err != nil {
		return "", err
	}
	// Reopen the object to append the rows array.
	return string(b[:len(b)-1]) + `,"rows":[`, nil
}

// subset returns the matrix of m's rows at idx, in that order, sharing
// the row slices.
func subset(m *dataset.Matrix, idx []int) *dataset.Matrix {
	out := &dataset.Matrix{GeneNames: m.GeneNames, ClassNames: m.ClassNames}
	for _, r := range idx {
		out.Values = append(out.Values, m.Values[r])
		out.Labels = append(out.Labels, m.Labels[r])
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fingerprint hashes a workload's generated inputs, so a change to
// internal/synth or to the benchmark's input code cannot silently
// change what is measured. A nil fingerprint hashes nothing.
type fingerprint struct{ h hash.Hash }

func (f *fingerprint) bytes(bs ...[]byte) {
	if f == nil {
		return
	}
	for _, b := range bs {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		f.h.Write(n[:])
		f.h.Write(b)
	}
}

func (f *fingerprint) ints(xs []int) {
	if f == nil {
		return
	}
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	f.bytes(b)
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

//go:embed fingerprints.json
var fingerprintsJSON []byte

// expectedFingerprints maps each workload to the hash of its seed-0
// inputs at full scale. After a deliberate change to the inputs, copy
// each workload's new hash from its failure message into the file.
func expectedFingerprints() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &m); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return m, nil
}

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }
