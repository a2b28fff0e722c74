package rcbt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rules"
)

// ModelSchemaVersion is the envelope schema written by Save. Load
// accepts exactly this version; the field exists so a future layout
// change can fail loudly instead of mis-decoding old files.
const ModelSchemaVersion = 1

// modelKind tags the envelope so an RCBT loader rejects files written
// by other model types (see internal/cba).
const modelKind = "rcbt-model"

// Meta is free-form dataset provenance carried inside the envelope: it
// is not needed to classify, but it lets a serving layer report what a
// model was trained on.
type Meta struct {
	// Dataset names the training data (file path or profile name).
	Dataset string `json:"dataset,omitempty"`
	// DatasetVersion is the datastore snapshot version the model was
	// trained on (0 = unversioned data: a file or an inline payload).
	// Operators use it to see which snapshot a serving model reflects.
	DatasetVersion int `json:"datasetVersion,omitempty"`
	// TrainRows / Genes record the training matrix shape.
	TrainRows int `json:"trainRows,omitempty"`
	Genes     int `json:"genes,omitempty"`
	// CreatedAt is an RFC3339 timestamp set by the writer.
	CreatedAt string `json:"createdAt,omitempty"`
}

// Model bundles everything needed to serve classifications: the
// trained classifier, the discretization cuts that map raw expression
// values to item ids (optional — models trained on pre-discretized
// datasets have none), the class names, and provenance metadata.
type Model struct {
	Classifier  *Classifier
	Discretizer *discretize.Discretizer // nil when trained on an item dataset
	ClassNames  []string
	NumItems    int // item universe size rule antecedents index into
	Meta        Meta
}

// envelope is the on-disk JSON layout (schema version 1).
type envelope struct {
	Schema     int               `json:"schema"`
	Kind       string            `json:"kind"`
	Meta       Meta              `json:"meta,omitempty"`
	ClassNames []string          `json:"classNames,omitempty"`
	NumItems   int               `json:"numItems,omitempty"`
	Cuts       *cutsSection      `json:"discretizer,omitempty"`
	Classifier classifierSection `json:"classifier"`
}

// cutsSection serializes a discretizer: per-gene entropy-MDL cut
// points. Genes with no cuts were rejected by MDL and yield no items.
type cutsSection struct {
	ClassNames []string   `json:"classes"`
	Genes      []geneCuts `json:"genes"`
}

type geneCuts struct {
	Name string    `json:"name"`
	Cuts []float64 `json:"cuts,omitempty"`
}

type classifierSection struct {
	Default    dataset.Label `json:"default"`
	ClassCount []int         `json:"classCount"`
	NumClasses int           `json:"numClasses"`
	Subs       []subSection  `json:"subs"`
}

type subSection struct {
	Rules []ruleSection `json:"rules"`
	Norm  []float64     `json:"norm"`
}

type ruleSection struct {
	Items      []int         `json:"items"`
	Class      dataset.Label `json:"class"`
	Support    int           `json:"sup"`
	Confidence float64       `json:"conf"`
}

// NumClasses returns the class universe size the classifier votes over.
func (c *Classifier) NumClasses() int { return c.numClasses }

// section converts the in-memory classifier to its wire form.
func (c *Classifier) section() classifierSection {
	s := classifierSection{
		Default:    c.def,
		ClassCount: c.classCount,
		NumClasses: c.numClasses,
	}
	for _, sub := range c.subs {
		ws := subSection{Norm: sub.norm}
		for _, r := range sub.rules {
			ws.Rules = append(ws.Rules, ruleSection{
				Items:      r.Antecedent,
				Class:      r.Class,
				Support:    r.Support,
				Confidence: r.Confidence,
			})
		}
		s.Subs = append(s.Subs, ws)
	}
	return s
}

// classifierFromSection rebuilds a Classifier, validating shape
// invariants so a truncated or hand-edited file fails here rather than
// at prediction time.
func classifierFromSection(s classifierSection) (*Classifier, error) {
	if s.NumClasses < 2 || len(s.ClassCount) != s.NumClasses {
		return nil, fmt.Errorf("rcbt: load: malformed model (%d classes, %d counts)",
			s.NumClasses, len(s.ClassCount))
	}
	if int(s.Default) < 0 || int(s.Default) >= s.NumClasses {
		return nil, fmt.Errorf("rcbt: load: default class %d outside [0,%d)", s.Default, s.NumClasses)
	}
	c := &Classifier{
		def:        s.Default,
		classCount: s.ClassCount,
		numClasses: s.NumClasses,
	}
	for i, sub := range s.Subs {
		if len(sub.Norm) != s.NumClasses {
			return nil, fmt.Errorf("rcbt: load: sub-classifier %d norm length %d != %d classes",
				i, len(sub.Norm), s.NumClasses)
		}
		ms := subClassifier{norm: sub.Norm}
		for _, r := range sub.Rules {
			if int(r.Class) < 0 || int(r.Class) >= s.NumClasses {
				return nil, fmt.Errorf("rcbt: load: rule class %d outside [0,%d)", r.Class, s.NumClasses)
			}
			ms.rules = append(ms.rules, &rules.Rule{
				Antecedent: r.Items,
				Class:      r.Class,
				Support:    r.Support,
				Confidence: r.Confidence,
			})
		}
		c.subs = append(c.subs, ms)
	}
	return c, nil
}

// Save writes the classifier alone as a schema-versioned JSON envelope.
// Rule row-support bitsets are not part of the model and are not
// written. To bundle discretization cuts for serving raw expression
// rows, save a Model instead.
func (c *Classifier) Save(w io.Writer) error {
	return writeEnvelope(w, envelope{
		Schema:     ModelSchemaVersion,
		Kind:       modelKind,
		Classifier: c.section(),
	})
}

// Save writes the full model envelope: classifier, discretization
// cuts, class names and metadata.
func (m *Model) Save(w io.Writer) error {
	if m.Classifier == nil {
		return fmt.Errorf("rcbt: save: model has no classifier")
	}
	env := envelope{
		Schema:     ModelSchemaVersion,
		Kind:       modelKind,
		Meta:       m.Meta,
		ClassNames: m.ClassNames,
		NumItems:   m.NumItems,
		Classifier: m.Classifier.section(),
	}
	if dz := m.Discretizer; dz != nil {
		cs := &cutsSection{ClassNames: dz.ClassNames}
		for g, name := range dz.GeneNames {
			cs.Genes = append(cs.Genes, geneCuts{Name: name, Cuts: dz.Cuts[g]})
		}
		env.Cuts = cs
	}
	return writeEnvelope(w, env)
}

// SaveFile writes the full model envelope to path through
// atomicfile.Write: the bytes are staged next to path, fsynced and
// renamed into place, so a crash mid-save leaves the old file or the
// new one, never a truncated model, and two writers of one path cannot
// steal each other's staging file.
func (m *Model) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

func writeEnvelope(w io.Writer, env envelope) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(env)
}

// Load reads a classifier written by (*Classifier).Save or
// (*Model).Save, discarding any bundled discretizer.
func Load(r io.Reader) (*Classifier, error) {
	m, err := LoadModel(r)
	if err != nil {
		return nil, err
	}
	return m.Classifier, nil
}

// LoadModel reads a model envelope written by Save, verifying the
// schema version and kind tag. An envelope with neither numItems nor a
// discretizer (written by Classifier.Save) gets the universe 1 + the
// largest antecedent item. Every loaded model's universe is at most
// dataset.MaxItems.
func LoadModel(r io.Reader) (*Model, error) {
	var env envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("rcbt: load: %w", err)
	}
	if env.Kind != modelKind {
		return nil, fmt.Errorf("rcbt: load: not an RCBT model (kind %q)", env.Kind)
	}
	if env.Schema != ModelSchemaVersion {
		return nil, fmt.Errorf("rcbt: load: unsupported schema version %d (supported: %d)",
			env.Schema, ModelSchemaVersion)
	}
	c, err := classifierFromSection(env.Classifier)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Classifier: c,
		ClassNames: env.ClassNames,
		NumItems:   env.NumItems,
		Meta:       env.Meta,
	}
	if env.Cuts != nil {
		names := make([]string, len(env.Cuts.Genes))
		cuts := make([][]float64, len(env.Cuts.Genes))
		for i, g := range env.Cuts.Genes {
			names[i] = g.Name
			cuts[i] = g.Cuts
		}
		dz, err := discretize.FromCuts(env.Cuts.ClassNames, names, cuts)
		if err != nil {
			return nil, fmt.Errorf("rcbt: load: %w", err)
		}
		m.Discretizer = dz
		if m.NumItems == 0 {
			m.NumItems = dz.NumItems()
		}
		if len(m.ClassNames) == 0 {
			m.ClassNames = dz.ClassNames
		}
	}
	if m.NumItems == 0 && m.Discretizer == nil {
		m.NumItems = antecedentUniverse(env.Classifier)
	}
	switch {
	case m.NumItems < 0:
		return nil, fmt.Errorf("rcbt: load: negative item universe %d", m.NumItems)
	case m.NumItems > dataset.MaxItems:
		return nil, fmt.Errorf("rcbt: load: item universe exceeds the %d-item cap", dataset.MaxItems)
	}
	return m, nil
}

// LoadModelFile reads the model envelope at path (see LoadModel).
func LoadModelFile(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadModel(bytes.NewReader(b))
}

// antecedentUniverse returns 1 + the largest item a rule antecedent
// names, saturating at dataset.MaxItems+1 so a huge id cannot overflow.
func antecedentUniverse(s classifierSection) int {
	n := 0
	for _, sub := range s.Subs {
		for _, r := range sub.Rules {
			for _, it := range r.Items {
				n = max(n, min(it, dataset.MaxItems)+1)
			}
		}
	}
	return n
}
