// Package analysis implements vetsuite, the repo-specific static
// analysis suite for the TopkRGS miner. It is built on the standard
// library alone (go/ast, go/parser, go/types, go/importer): a small
// loader type-checks every package in the module and seven analyzers
// enforce what neither the compiler, go vet nor the test suite catches.
//
// Code conventions:
//
//   - bitsetalias: in-place bitset mutation is only allowed on sets the
//     mutating code owns; sets obtained from another package's accessor
//     or from a foreign struct field must be Clone()d first.
//   - floatcmp: confidence/score float64s are never compared with == or
//     != directly; all equality and tie-breaking goes through
//     rules.CompareConf.
//   - panichygiene: panics are reserved for precondition checks in
//     internal/bitset; everywhere else they must be annotated.
//   - uncheckederr: cmd/, internal/bench, internal/report,
//     internal/serve, internal/jobs, internal/datastore and
//     internal/atomicfile must not drop error returns on the floor.
//
// Contracts the engine, jobs and serve layers state in prose
// (DESIGN.md §7):
//
//   - allocfree: functions annotated "vet:allocfree" must compile with
//     zero heap escapes, proven by the compiler's own -gcflags=-m
//     diagnostics (panic preconditions are exempt — they never run on
//     the steady-state path).
//   - ctxflow: context.Context is the first parameter, is forwarded
//     rather than re-minted, and context.Background()/TODO() stay out
//     of non-main packages.
//   - sentinelwrap: fmt.Errorf must wrap error operands with %w (never
//     %v/%s) and sentinel errors are matched with errors.Is, never ==,
//     keeping jobs.Record.Cause() matchable across a journal round-trip.
//
// A finding is suppressed by a comment on its line or on the line
// above, in one form:
//
//	// vetsuite:allow <analyzer> -- <reason>
//
// The reason is mandatory: a marker without one suppresses nothing and
// is itself reported as a "vetignore" finding.
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
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// newDiagnostic builds a finding at a resolved position.
func newDiagnostic(analyzer string, pos token.Position, msg string) Diagnostic {
	return Diagnostic{Analyzer: analyzer, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// Analyzer is one named check run over a type-checked package. Alias,
// when set, is an additional short name accepted in vetsuite:allow
// markers (e.g. "panic" for panichygiene).
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
	p.collect(newDiagnostic(p.Analyzer.Name, position, fmt.Sprintf(format, args...)))
}

// allowKey names one analyzer allowed on one line of one file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowIndex holds every (file, line, analyzer) a marker allows.
type allowIndex map[allowKey]bool

func (a allowIndex) allows(pos token.Position, analyzer string) bool {
	return a[allowKey{pos.Filename, pos.Line, analyzer}]
}

// buildAllowIndex scans every comment in the package for suppression
// markers, comments that begin
//
//	// vetsuite:allow <analyzer> -- <reason>
//
// A marker suppresses findings on its own line and on the following
// line, so it can sit above a long statement. A marker missing the
// analyzer name or the reason suppresses nothing and is returned as a
// malformed-suppression diagnostic, so a suppression can never shed its
// justification silently.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := allowIndex{}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "vetsuite:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				name, reason, _ := strings.Cut(rest, "--")
				name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
				if name == "" || strings.ContainsAny(name, " \t") || reason == "" {
					malformed = append(malformed, newDiagnostic("vetignore", pos,
						"vetsuite:allow requires an analyzer name and a reason: // vetsuite:allow <analyzer> -- <reason>"))
					continue
				}
				idx[allowKey{pos.Filename, pos.Line, name}] = true
				idx[allowKey{pos.Filename, pos.Line + 1, name}] = true
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
		FloatCmpAnalyzer,
		PanicHygieneAnalyzer,
		UncheckedErrAnalyzer,
		AllocFreeAnalyzer,
		CtxFlowAnalyzer,
		SentinelWrapAnalyzer,
	}}
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
