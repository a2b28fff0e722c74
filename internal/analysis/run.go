package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// findingsSchema versions the -json output layout so CI baseline diffs
// fail loudly when the format changes rather than silently matching.
const findingsSchema = "vetsuite-findings/2"

// Report is the machine-readable -json output: a SARIF-flavored
// envelope (tool block, rule table, flat findings list) kept free of
// timestamps and absolute paths so identical findings byte-compare
// equal across runs and machines — the property the CI baseline diff
// relies on.
type Report struct {
	Schema string     `json:"schema"`
	Tool   ReportTool `json:"tool"`
	Count  int        `json:"count"`
	// Findings are sorted by file, line, column, analyzer; file paths
	// are module-root-relative.
	Findings []Diagnostic `json:"findings"`
}

// ReportTool identifies the producer and its rule set.
type ReportTool struct {
	Name  string       `json:"name"`
	Rules []ReportRule `json:"rules"`
}

// ReportRule documents one analyzer that ran.
type ReportRule struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// Main is the vetsuite driver: it loads every package of the module
// enclosing the working directory, runs every analyzer over all of them
// and prints the findings. It returns the process exit code: 0 clean,
// 1 findings, 2 load or usage errors (so CI can tell "the code has
// findings" from "the suite could not run").
func Main(w, ew io.Writer, args []string) int {
	fs := flag.NewFlagSet("vetsuite", flag.ContinueOnError)
	fs.SetOutput(ew)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (schema "+findingsSchema+")")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(ew, "usage: vetsuite [-json] [-list]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(ew, "vetsuite: unexpected argument %q: the whole module is always analyzed\n", fs.Arg(0))
		return 2
	}
	suite := DefaultSuite()
	if *list {
		for _, a := range suite.Analyzers {
			fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(ew, "vetsuite: %v\n", err)
		return 2
	}
	loader, err := NewLoader(root)
	if err != nil {
		fmt.Fprintf(ew, "vetsuite: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintf(ew, "vetsuite: %v\n", err)
		return 2
	}
	facts := ComputeFacts(pkgs)
	if facts.Escapes, err = ComputeEscapes(root); err != nil {
		fmt.Fprintf(ew, "vetsuite: %v\n", err)
		return 2
	}
	diags := suite.Run(pkgs, facts)
	for i := range diags {
		diags[i].File = relPath(root, diags[i].File)
	}

	if *jsonOut {
		report := Report{
			Schema:   findingsSchema,
			Tool:     ReportTool{Name: "vetsuite"},
			Count:    len(diags),
			Findings: diags,
		}
		for _, a := range suite.Analyzers {
			report.Tool.Rules = append(report.Tool.Rules, ReportRule{Name: a.Name, Doc: a.Doc})
		}
		if report.Findings == nil {
			report.Findings = []Diagnostic{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(ew, "vetsuite: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(w, "vetsuite: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath strips the module root prefix so both text and JSON output
// report stable, root-relative file paths.
func relPath(root, file string) string {
	if strings.HasPrefix(file, root+string(os.PathSeparator)) {
		return filepath.ToSlash(file[len(root)+1:])
	}
	return file
}
