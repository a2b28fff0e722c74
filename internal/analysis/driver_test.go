package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// mainReport is the -json report of one vetsuite run over the whole
// module, as make analyze and CI run it.
type mainReport struct {
	Schema string `json:"schema"`
	Tool   struct {
		Name  string `json:"name"`
		Rules []struct {
			Name string `json:"name"`
			Doc  string `json:"doc"`
		} `json:"rules"`
	} `json:"tool"`
	Count    int `json:"count"`
	Findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	} `json:"findings"`
}

// Loading and type-checking the module dominates this package's test
// time, so every test that reads the driver's report shares one run.
var (
	mainOnce   sync.Once
	mainCode   int
	mainStdout bytes.Buffer
	mainStderr bytes.Buffer
)

// runMainJSON runs Main -json once per test binary and returns its
// decoded report, failing the test if the driver exited 2 or printed
// something other than a report.
func runMainJSON(t *testing.T) *mainReport {
	t.Helper()
	mainOnce.Do(func() {
		mainCode = Main(&mainStdout, &mainStderr, []string{"-json"})
	})
	if mainCode == 2 {
		t.Fatalf("Main exit 2, stderr: %s", mainStderr.String())
	}
	var res mainReport
	if err := json.Unmarshal(mainStdout.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, mainStdout.String())
	}
	return &res
}

// TestSuiteCleanOnModule is the enforcement test: the whole module must
// load, type-check and pass every analyzer. A regression that mutates a
// borrowed bitset, compares confidences ad hoc, panics on a library
// path, or drops an error in a writer package fails here (and in make
// analyze / CI).
func TestSuiteCleanOnModule(t *testing.T) {
	res := runMainJSON(t)
	for _, d := range res.Findings {
		t.Errorf("unexpected finding: %s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	if mainCode != 0 || res.Count != 0 {
		t.Errorf("Main exit %d with count %d, want a clean module (exit 0, count 0)", mainCode, res.Count)
	}
}

func TestModuleLoadCoversKnownPackages(t *testing.T) {
	pkgs := mustLoadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	byPath := map[string]bool{}
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	for _, path := range []string{
		"repro/internal/bitset",
		"repro/internal/core",
		"repro/internal/engine",
		"repro/internal/rules",
		"repro/cmd/vetsuite",
		"repro/topkrgs",
	} {
		if !byPath[path] {
			t.Errorf("module load missed %s", path)
		}
	}
}

func TestFactsMarkBitsetProducersFresh(t *testing.T) {
	pkgs := mustLoadModule(t)
	facts := ComputeFacts(pkgs)
	fresh := map[string]bool{}
	for obj := range facts.Fresh {
		fresh[obj.Name()] = true
	}
	for _, name := range []string{"New", "FromIndices", "Clone", "Intersect", "Union", "Difference"} {
		if !fresh[name] {
			t.Errorf("bitset.%s not registered as fresh", name)
		}
	}
}

func TestMainJSONAndFlags(t *testing.T) {
	res := runMainJSON(t)
	if res.Schema != findingsSchema {
		t.Errorf("schema = %q, want %q", res.Schema, findingsSchema)
	}
	if res.Tool.Name != "vetsuite" {
		t.Errorf("tool.name = %q, want vetsuite", res.Tool.Name)
	}
	suite := DefaultSuite()
	if len(res.Tool.Rules) != len(suite.Analyzers) {
		t.Fatalf("tool.rules has %d entries, want %d", len(res.Tool.Rules), len(suite.Analyzers))
	}
	for i, a := range suite.Analyzers {
		if r := res.Tool.Rules[i]; r.Name != a.Name || r.Doc != a.Doc {
			t.Errorf("tool.rules[%d] = %s, want %s", i, r.Name, a.Name)
		}
	}

	var out, errOut bytes.Buffer
	if code := Main(&out, &errOut, []string{"-list"}); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range []string{
		"bitsetalias", "floatcmp", "panichygiene", "uncheckederr",
		"allocfree", "ctxflow", "sentinelwrap",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}

	// vetsuite always analyzes the whole module with every analyzer: a
	// package pattern or a selection flag is a usage error, refused
	// before anything loads.
	for _, args := range [][]string{{"./..."}, {"-pkg", "./internal/jobs/..."}, {"-enable", "floatcmp"}, {"-C", "."}} {
		out.Reset()
		errOut.Reset()
		if code := Main(&out, &errOut, args); code != 2 {
			t.Errorf("Main %q: exit %d, want 2", args, code)
		}
	}
}

// TestVetIgnoreRequiresReason pins the suppression contract: a
// vetsuite:allow marker with an analyzer name and a reason suppresses on
// its own line and the next; a reasonless or nameless marker suppresses
// nothing and is itself reported as a "vetignore" finding; the retired
// //vet:ignore form suppresses nothing.
func TestVetIgnoreRequiresReason(t *testing.T) {
	ldr := sharedLoader(t)
	pkg, err := ldr.LoadDir("testdata/src/vetignore",
		"repro/internal/analysis/testdata/src/vetignore")
	if err != nil {
		t.Fatal(err)
	}
	facts := ComputeFacts(ldr.Packages())
	diags := (&Suite{Analyzers: []*Analyzer{CtxFlowAnalyzer}}).Run([]*Package{pkg}, facts)
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// Three malformed markers (no reason, an empty reason, no name),
	// each leaving its ctxflow finding unsuppressed, plus the retired
	// syntax's finding.
	if byAnalyzer["vetignore"] != 3 {
		t.Errorf("got %d vetignore findings, want 3: %v", byAnalyzer["vetignore"], diags)
	}
	if byAnalyzer["ctxflow"] != 4 {
		t.Errorf("got %d ctxflow findings, want 4: %v", byAnalyzer["ctxflow"], diags)
	}
}

// TestAllocFreeRefusesVacuousPass: with annotations present but no
// escape data the analyzer must fail loudly, not certify silently.
func TestAllocFreeRefusesVacuousPass(t *testing.T) {
	ldr := sharedLoader(t)
	pkg, err := ldr.LoadDir("testdata/src/allocfree",
		"repro/internal/analysis/testdata/src/allocfree")
	if err != nil {
		t.Fatal(err)
	}
	facts := ComputeFacts(ldr.Packages()) // Escapes deliberately left nil
	diags := (&Suite{Analyzers: []*Analyzer{AllocFreeAnalyzer}}).Run([]*Package{pkg}, facts)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "escape diagnostics were not computed") {
		t.Errorf("want exactly one config finding, got: %v", diags)
	}
}

// TestFactsContractLayer pins the cross-package facts the contract
// analyzers consume: allocfree annotations and error sentinels.
func TestFactsContractLayer(t *testing.T) {
	pkgs := mustLoadModule(t)
	facts := ComputeFacts(pkgs)

	allocFree := map[string]bool{}
	for obj := range facts.AllocFree {
		allocFree[obj.Name()] = true
	}
	for _, name := range []string{"Add", "Contains", "IntersectWith", "IntersectCountBelow"} {
		if !allocFree[name] {
			t.Errorf("bitset.%s not registered vet:allocfree", name)
		}
	}

	sentinels := map[string]bool{}
	for obj := range facts.Sentinels {
		if obj.Pkg() != nil {
			sentinels[obj.Pkg().Name()+"."+obj.Name()] = true
		}
	}
	for _, name := range []string{"engine.ErrNodeBudget", "jobs.ErrInterrupted", "jobs.ErrBadSpec"} {
		if !sentinels[name] {
			t.Errorf("%s not registered as a sentinel error", name)
		}
	}
}
