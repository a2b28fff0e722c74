// Package analysis implements vetsuite, the repo-specific static
// analysis suite for the TopkRGS miner. It is built on the standard
// library alone (go/ast, go/parser, go/types, go/importer): a small
// loader type-checks every package in the module and a set of analyzers
// enforce the code conventions the compiler cannot see:
//
//   - bitsetalias: in-place bitset mutation is only allowed on sets the
//     mutating code owns; sets obtained from another package's accessor
//     or from a foreign struct field must be Clone()d first.
//   - floatcmp: confidence/score float64s are never compared with == or
//     != directly; all equality and tie-breaking goes through
//     rules.CompareConf.
//   - panichygiene: panics are reserved for precondition checks in
//     internal/bitset; everywhere else they must be annotated.
//   - deprecatedapi: declarations carrying a "Deprecated:" doc
//     paragraph must not be used from outside their defining package,
//     so compatibility shims can be deleted on schedule.
//   - uncheckederr: cmd/, internal/bench, internal/report,
//     internal/serve, internal/jobs, internal/datastore and
//     internal/atomicfile must not drop error returns on the floor.
//   - syncguard: preparation for the parallel miner — no by-value
//     copies of lock-carrying types, no goroutine capture of shared
//     mutable bitsets.
//
// A second generation of analyzers verifies the contracts the engine,
// jobs and serve layers state in prose (DESIGN.md §7):
//
//   - allocfree: functions annotated "vet:allocfree" must compile with
//     zero heap escapes, proven by the compiler's own -gcflags=-m
//     diagnostics (panic preconditions are exempt — they never run on
//     the steady-state path).
//   - visitoralias: engine.Visitor implementations must not retain a
//     parameter-derived *bitset.Set or slice past the callback — every
//     store, send or capture needs an intervening Clone()/copy.
//   - ctxflow: context.Context is the first parameter, is forwarded
//     rather than re-minted, and context.Background()/TODO() stay out
//     of non-main packages.
//   - sentinelwrap: fmt.Errorf must wrap error operands with %w (never
//     %v/%s) and sentinel errors are matched with errors.Is, never ==,
//     keeping jobs.Record.Cause() matchable across a journal round-trip.
//
// Findings can be suppressed line-by-line with a trailing or preceding
// comment in either of two forms:
//
//	// vetsuite:allow <analyzer> [-- reason]
//	//vet:ignore <analyzer> <reason>
//
// The vet:ignore form requires the reason; a reasonless marker
// suppresses nothing and is itself reported as a finding. Producer
// functions that always return a freshly allocated *bitset.Set can be
// documented with a "vetsuite:fresh" marker in their doc comment, which
// the bitsetalias analyzer honors across packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package. Alias,
// when set, is an additional short name accepted in vetsuite:allow
// annotations (e.g. "panic" for panichygiene).
type Analyzer struct {
	Name  string
	Alias string
	Doc   string
	Run   func(*Pass)
}

// Pass carries everything an analyzer needs to inspect one package and
// report findings. Reports on lines carrying (or immediately following)
// a matching vetsuite:allow comment are dropped centrally, so every
// analyzer gets the same suppression semantics for free.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Facts    *Facts

	allow   allowIndex
	collect func(Diagnostic)
}

// Reportf records a finding at pos unless that line is suppressed for
// this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(position, p.Analyzer.Name) || (p.Analyzer.Alias != "" && p.allow.allows(position, p.Analyzer.Alias)) {
		return
	}
	p.collect(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowIndex maps "file:line" to the set of analyzer names allowed
// there. A comment suppresses findings both on its own line and on the
// following line, so annotations can sit above long statements.
type allowIndex map[string]map[string]bool

func (a allowIndex) allows(pos token.Position, analyzer string) bool {
	set := a[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	return set[analyzer] || set["all"]
}

// buildAllowIndex scans every comment in the package for suppression
// markers. Two syntaxes are honored:
//
//	// vetsuite:allow <analyzer> [-- reason]
//	//vet:ignore <analyzer> <reason>
//
// Both suppress findings on their own line and on the following line.
// The vet:ignore form makes the reason mandatory: a marker missing the
// analyzer name or the reason suppresses nothing and is returned as a
// malformed-suppression diagnostic, so a suppression can never shed its
// justification silently.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := allowIndex{}
	var malformed []Diagnostic
	add := func(file string, line int, name string) {
		key := fmt.Sprintf("%s:%d", file, line)
		if idx[key] == nil {
			idx[key] = map[string]bool{}
		}
		idx[key][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if i := strings.Index(text, "vet:ignore"); i >= 0 && !strings.Contains(text, "vetsuite:allow") {
					rest := strings.TrimSpace(text[i+len("vet:ignore"):])
					name, reason := rest, ""
					if j := strings.IndexAny(rest, " \t"); j >= 0 {
						name, reason = rest[:j], strings.TrimSpace(rest[j+1:])
					}
					pos := fset.Position(c.Pos())
					if name == "" || reason == "" {
						malformed = append(malformed, Diagnostic{
							Analyzer: "vetignore",
							Pos:      pos,
							File:     pos.Filename,
							Line:     pos.Line,
							Col:      pos.Column,
							Message:  "vet:ignore requires an analyzer name and a reason: //vet:ignore <analyzer> <reason>",
						})
						continue
					}
					add(pos.Filename, pos.Line, name)
					add(pos.Filename, pos.Line+1, name)
					continue
				}
				i := strings.Index(text, "vetsuite:allow")
				if i < 0 {
					continue
				}
				rest := strings.TrimSpace(text[i+len("vetsuite:allow"):])
				name := rest
				if j := strings.IndexAny(rest, " \t"); j >= 0 {
					name = rest[:j]
				}
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, name)
				add(pos.Filename, pos.Line+1, name)
			}
		}
	}
	return idx, malformed
}

// Suite is an ordered collection of analyzers.
type Suite struct {
	Analyzers []*Analyzer
}

// DefaultSuite returns all vetsuite analyzers in reporting order.
func DefaultSuite() *Suite {
	return &Suite{Analyzers: []*Analyzer{
		BitsetAliasAnalyzer,
		DeprecatedAPIAnalyzer,
		FloatCmpAnalyzer,
		PanicHygieneAnalyzer,
		UncheckedErrAnalyzer,
		SyncGuardAnalyzer,
		AllocFreeAnalyzer,
		VisitorAliasAnalyzer,
		CtxFlowAnalyzer,
		SentinelWrapAnalyzer,
	}}
}

// Lookup returns the analyzer with the given name, or nil.
func (s *Suite) Lookup(name string) *Analyzer {
	for _, a := range s.Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies every analyzer to every package and returns the findings
// sorted by file position then analyzer name.
func (s *Suite) Run(pkgs []*Package, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow, malformed := buildAllowIndex(pkg.Fset, pkg.Files)
		diags = append(diags, malformed...)
		for _, az := range s.Analyzers {
			pass := &Pass{
				Analyzer: az,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Facts:    facts,
				allow:    allow,
				collect:  func(d Diagnostic) { diags = append(diags, d) },
			}
			az.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
