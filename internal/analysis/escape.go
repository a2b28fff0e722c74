package analysis

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeDiag is one heap-allocation diagnostic emitted by the Go
// compiler's escape analysis (-gcflags=-m): a value at File:Line:Col
// either "escapes to heap" or was "moved to heap".
type EscapeDiag struct {
	File string // absolute, cleaned path
	Line int
	Col  int
	Msg  string
}

// EscapeSet indexes escape diagnostics by file, so the allocfree
// analyzer can ask "which heap allocations does the compiler prove
// inside this function's span?". Populate with ComputeEscapes.
type EscapeSet struct {
	byFile map[string][]EscapeDiag
}

// ForFile returns the diagnostics recorded for an absolute file path,
// in line order.
func (s *EscapeSet) ForFile(abs string) []EscapeDiag {
	if s == nil {
		return nil
	}
	return s.byFile[filepath.Clean(abs)]
}

// escapeLineRE matches one compiler diagnostic line. The go command
// replays compiler output from the build cache, so repeated runs are
// deterministic even when nothing recompiles.
var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ComputeEscapes runs `go build -gcflags=-m=1` over the given package
// patterns (resolved relative to moduleRoot) and collects the heap
// escape diagnostics. Inlining and "does not escape" chatter is
// dropped; diagnostics are deduplicated because cross-package inlining
// can attribute the same source position from several compilations.
func ComputeEscapes(moduleRoot string, patterns ...string) (*EscapeSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"build", "-gcflags=-m=1"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: go build -gcflags=-m: %w\n%s", err, out)
	}
	set := &EscapeSet{byFile: map[string][]EscapeDiag{}}
	seen := map[EscapeDiag]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleRoot, file)
		}
		file = filepath.Clean(file)
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		d := EscapeDiag{File: file, Line: ln, Col: col, Msg: msg}
		if seen[d] {
			continue
		}
		seen[d] = true
		set.byFile[file] = append(set.byFile[file], d)
	}
	for f := range set.byFile {
		ds := set.byFile[f]
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Line != ds[j].Line {
				return ds[i].Line < ds[j].Line
			}
			return ds[i].Col < ds[j].Col
		})
	}
	return set, nil
}
