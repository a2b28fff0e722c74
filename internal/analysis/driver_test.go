package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSuiteCleanOnModule is the enforcement test: the whole module must
// load, type-check and pass every analyzer. A regression that violates
// the clone-before-mutate rule, compares confidences ad hoc, panics on
// a library path, or drops an error in a writer package fails here (and
// in make analyze / CI).
func TestSuiteCleanOnModule(t *testing.T) {
	pkgs := mustLoadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	facts := ComputeFacts(pkgs)
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	esc, err := ComputeEscapes(root)
	if err != nil {
		t.Fatalf("ComputeEscapes: %v", err)
	}
	facts.Escapes = esc
	diags := DefaultSuite().Run(pkgs, facts)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestModuleLoadCoversKnownPackages(t *testing.T) {
	pkgs := mustLoadModule(t)
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

// TestFacadeShimsRetired pins the end of the redesign's deprecation
// schedule: the topkrgs compatibility shims (MineLegacy, the
// positional MineContext, TrainRCBTLegacy, the old Options) were
// deleted after their one release of grace, so no deprecated symbol
// may remain in the facade.
func TestFacadeShimsRetired(t *testing.T) {
	pkgs := mustLoadModule(t)
	facts := ComputeFacts(pkgs)
	for obj := range facts.Deprecated {
		if obj.Pkg() != nil && obj.Pkg().Path() == "repro/topkrgs" {
			t.Errorf("topkrgs.%s is still deprecated; the shim layer was retired", obj.Name())
		}
	}
}

func TestMainJSONAndFlags(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := Main(&out, &errOut, []string{"-C", root, "-json", "./..."}); code != 0 {
		t.Fatalf("Main exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	var res struct {
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
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, out.String())
	}
	if res.Schema != findingsSchema {
		t.Errorf("schema = %q, want %q", res.Schema, findingsSchema)
	}
	if res.Tool.Name != "vetsuite" {
		t.Errorf("tool.name = %q, want vetsuite", res.Tool.Name)
	}
	if want := len(DefaultSuite().Analyzers); len(res.Tool.Rules) != want {
		t.Errorf("tool.rules has %d entries, want %d", len(res.Tool.Rules), want)
	}
	if res.Count != 0 || len(res.Findings) != 0 {
		t.Errorf("expected clean module, got %d findings", res.Count)
	}

	out.Reset()
	if code := Main(&out, &errOut, []string{"-list"}); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range []string{
		"bitsetalias", "deprecatedapi", "floatcmp", "panichygiene",
		"uncheckederr", "syncguard", "allocfree", "visitoralias",
		"ctxflow", "sentinelwrap",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}

	out.Reset()
	errOut.Reset()
	if code := Main(&out, &errOut, []string{"-enable", "nosuch"}); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}

	// Disabling every analyzer but one still runs clean and fast.
	out.Reset()
	errOut.Reset()
	if code := Main(&out, &errOut, []string{"-C", root, "-enable", "panichygiene"}); code != 0 {
		t.Errorf("-enable panichygiene exit %d, stderr: %s", code, errOut.String())
	}
}

// TestMainPatternSelection pins the -pkg / positional package selection
// semantics: subtree and exact patterns filter findings, a pattern that
// matches nothing is a usage error (exit 2), not a silent clean pass.
func TestMainPatternSelection(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := Main(&out, &errOut, []string{"-C", root, "-enable", "floatcmp", "./internal/rules"}); code != 0 {
		t.Errorf("exact pattern exit %d, stderr: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := Main(&out, &errOut, []string{"-C", root, "-enable", "floatcmp", "-pkg", "./internal/jobs/..."}); code != 0 {
		t.Errorf("-pkg subtree exit %d, stderr: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := Main(&out, &errOut, []string{"-C", root, "-enable", "floatcmp", "./internal/nosuchpkg"}); code != 2 {
		t.Errorf("unmatched pattern exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "matched no packages") {
		t.Errorf("unmatched pattern error missing, got: %s", errOut.String())
	}
}

func TestSelectAnalyzers(t *testing.T) {
	var ew bytes.Buffer
	s := selectAnalyzers(DefaultSuite(), "floatcmp,syncguard", "", &ew)
	if s == nil || len(s.Analyzers) != 2 {
		t.Fatalf("enable filter failed: %v", s)
	}
	all := len(DefaultSuite().Analyzers)
	s = selectAnalyzers(DefaultSuite(), "", "floatcmp", &ew)
	if s == nil || len(s.Analyzers) != all-1 || s.Lookup("floatcmp") != nil {
		t.Fatalf("disable filter failed")
	}
}

// TestVetIgnoreRequiresReason pins the suppression contract: a
// vet:ignore with a reason suppresses, a reasonless or nameless marker
// suppresses nothing and is itself reported as a "vetignore" finding.
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
		if strings.Contains(d.Message, "reason present") {
			t.Errorf("justified suppression did not suppress: %s", d)
		}
	}
	// Two malformed markers (reasonless, nameless), each leaving its
	// ctxflow finding unsuppressed.
	if byAnalyzer["vetignore"] != 2 {
		t.Errorf("got %d vetignore findings, want 2: %v", byAnalyzer["vetignore"], diags)
	}
	if byAnalyzer["ctxflow"] != 2 {
		t.Errorf("got %d ctxflow findings, want 2: %v", byAnalyzer["ctxflow"], diags)
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

// TestFactsContractLayer pins the cross-package facts the new analyzers
// consume: allocfree annotations, error sentinels, atomic fields.
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
