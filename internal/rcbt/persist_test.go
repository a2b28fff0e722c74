package rcbt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/synth"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d, _ := dataset.RunningExample()
	c, err := Train(d, Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClassifiers() != c.NumClassifiers() || loaded.Default() != c.Default() {
		t.Fatal("model shape changed across save/load")
	}
	// Predictions must be identical on every training row.
	for r := 0; r < d.NumRows(); r++ {
		items := d.RowItemSet(r)
		l1, i1 := c.Predict(items)
		l2, i2 := loaded.Predict(items)
		if l1 != l2 || i1 != i2 {
			t.Fatalf("row %d: prediction changed (%v,%d) vs (%v,%d)", r, l1, i1, l2, i2)
		}
	}
}

func TestEnvelopeIsVersionedJSON(t *testing.T) {
	d, _ := dataset.RunningExample()
	c, err := Train(d, Config{K: 1, NL: 2, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema int    `json:"schema"`
		Kind   string `json:"kind"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not JSON: %v", err)
	}
	if env.Schema != ModelSchemaVersion || env.Kind != "rcbt-model" {
		t.Fatalf("envelope header = %+v", env)
	}
}

// TestModelRoundTripSynthetic trains on a synthetic matrix, saves the
// full envelope (classifier + discretization cuts), reloads it, and
// requires bit-identical predictions on every raw test row — the
// train-once / classify-many lifecycle cmd/rcbt -save and rcbtserved
// rely on.
func TestModelRoundTripSynthetic(t *testing.T) {
	p := synth.Scaled(synth.ALL(), 80)
	trainM, testM, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dz, err := discretize.FitMatrix(trainM)
	if err != nil {
		t.Fatal(err)
	}
	dTrain, err := dz.Transform(trainM)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(dTrain, Config{K: 2, NL: 3, MinsupFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Classifier:  c,
		Discretizer: dz,
		ClassNames:  dTrain.ClassNames,
		NumItems:    dTrain.NumItems(),
		Meta:        Meta{Dataset: p.Name, TrainRows: trainM.NumRows(), Genes: trainM.NumGenes()},
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Discretizer == nil {
		t.Fatal("discretizer lost in round trip")
	}
	if loaded.NumItems != m.NumItems {
		t.Fatalf("NumItems %d != %d", loaded.NumItems, m.NumItems)
	}
	if loaded.Meta.Dataset != p.Name {
		t.Fatalf("meta lost: %+v", loaded.Meta)
	}
	// Classify raw rows through both pipelines.
	for r := 0; r < testM.NumRows(); r++ {
		l1, i1, err1 := m.PredictValues(testM.Values[r])
		l2, i2, err2 := loaded.PredictValues(testM.Values[r])
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d: predict errors %v / %v", r, err1, err2)
		}
		if l1 != l2 || i1 != i2 {
			t.Fatalf("row %d: prediction changed (%v,%d) vs (%v,%d)", r, l1, i1, l2, i2)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a json document")); err == nil {
		t.Fatal("garbage input must error")
	}
}

// hugeUniverseEnvelope is a 193-byte envelope declaring a 2^40-item
// universe. Loading it used to succeed, and a server then died
// allocating one row bitset over it.
const hugeUniverseEnvelope = `{"schema":1,"kind":"rcbt-model","numItems":1099511627776,"classifier":{"default":0,"classCount":[1,1],"numClasses":2,"subs":[{"rules":[{"items":[0],"class":0,"sup":1,"conf":1}],"norm":[1,1]}]}}`

// TestLoadDerivesClassifierOnlyUniverse: an envelope written by
// Classifier.Save carries no numItems, so LoadModel sizes the universe
// as 1 + the largest antecedent item.
func TestLoadDerivesClassifierOnlyUniverse(t *testing.T) {
	d, _ := dataset.RunningExample()
	c, err := Train(d, Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, sub := range c.subs {
		for _, r := range sub.rules {
			for _, it := range r.Antecedent {
				want = max(want, it+1)
			}
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || m.NumItems != want {
		t.Fatalf("NumItems = %d, want %d (1 + largest antecedent item)", m.NumItems, want)
	}
}

// FuzzLoadModel feeds arbitrary bytes to the envelope decoder, which
// faces the network (replication pull-on-miss, rcbtserved -model). It
// must never panic, must keep every accepted universe within
// dataset.MaxItems, and the loaded classifier must label a full row
// over that universe.
func FuzzLoadModel(f *testing.F) {
	d, _ := dataset.RunningExample()
	c, err := Train(d, Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	m := &Model{Classifier: c, ClassNames: d.ClassNames, NumItems: d.NumItems()}
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(hugeUniverseEnvelope))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.NumItems < 0 || m.NumItems > dataset.MaxItems {
			t.Fatalf("accepted a %d-item universe (cap %d)", m.NumItems, dataset.MaxItems)
		}
		row := bitset.New(m.NumItems)
		row.Fill()
		m.Classifier.Predict(row)
	})
}
