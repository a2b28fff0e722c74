// Command benchrunner regenerates the paper's tables and figures on the
// synthetic dataset profiles.
//
// Usage:
//
//	benchrunner -exp table1|fig6|fig6e|table2|fig7|fig8|defaultclass|minsupsweep|topgenes|groupcount|ablation|all [-scale N] [-json FILE]
//
// -scale divides the profiles' gene counts (1 = paper scale; larger is
// faster); -timeout bounds the whole run via context cancellation.
// Output goes to stdout in paper-style rows. -json also writes one
// experiment's structured results (table1, fig6, table2, topgenes and
// groupcount have them), so it does not combine with -exp all. An
// unknown -exp, or -json with -exp all, exits 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/eval"
)

// experiments lists the -exp names in the order -exp all runs them.
var experiments = []string{"table1", "fig6", "fig6e", "table2", "fig7", "fig8",
	"defaultclass", "minsupsweep", "topgenes", "groupcount", "ablation"}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+", or all of them in that order")
	scale := flag.Int("scale", 1, "gene-count divisor (1 = paper scale)")
	budget := flag.Int("budget", 3_000_000, "baseline node budget before DNF")
	topkBudget := flag.Int("topkbudget", 0, "optional MineTopkRGS node budget in fig6 (0 = unbounded)")
	noColumn := flag.Bool("nocolumn", false, "skip CHARM/CLOSET+ in fig6")
	datasets := flag.String("datasets", "", "comma-separated dataset filter for fig6 (e.g. ALL,LC)")
	minsups := flag.String("minsups", "", "comma-separated relative supports for fig6 (e.g. 0.95,0.9)")
	jsonOut := flag.String("json", "", "also write the experiment's structured results as JSON to this file (one experiment, not all)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown -exp %q; want one of %s, all\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}
	if *exp == "all" && *jsonOut != "" {
		fmt.Fprintln(os.Stderr, "benchrunner: -json holds one experiment's results; name it with -exp")
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
			}
			_ = f.Close()
		}()
	}
	s := bench.Scale(*scale)
	w := os.Stdout
	// writeJSON writes v as indented JSON to -json, if set.
	writeJSON := func(v any) error {
		if *jsonOut == "" {
			return nil
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			_ = f.Close() // the Encode failure is the error to report
			return err
		}
		return f.Close()
	}
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		rows, err := bench.Table1(w, s)
		if err != nil {
			return err
		}
		return writeJSON(rows)
	})
	run("fig6", func() error {
		cfg := bench.DefaultFig6Config()
		cfg.Scale = s
		cfg.BaselineBudget = *budget
		cfg.TopkBudget = *topkBudget
		cfg.IncludeColumnMiners = !*noColumn
		if *datasets != "" {
			for _, d := range strings.Split(*datasets, ",") {
				name := strings.TrimSpace(d)
				if *scale > 1 {
					name = fmt.Sprintf("%s/%d", name, *scale)
				}
				cfg.Datasets = append(cfg.Datasets, name)
			}
		}
		if *minsups != "" {
			cfg.Minsups = nil
			for _, m := range strings.Split(*minsups, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(m), 64)
				if err != nil {
					return fmt.Errorf("bad -minsups entry %q: %w", m, err)
				}
				cfg.Minsups = append(cfg.Minsups, v)
			}
		}
		pts, err := bench.Fig6(ctx, w, cfg)
		if err != nil {
			return err
		}
		bench.ChartFig6(w, pts)
		return writeJSON(pts)
	})
	run("fig6e", func() error {
		_, err := bench.Fig6e(ctx, w, s, 0.8, nil)
		return err
	})
	run("table2", func() error {
		results, err := bench.Table2(w, s, eval.Options{})
		if err != nil {
			return err
		}
		return writeJSON(results)
	})
	run("fig7", func() error {
		pts, err := bench.Fig7(w, s, nil)
		if err != nil {
			return err
		}
		bench.ChartFig7(w, pts)
		return nil
	})
	run("fig8", func() error {
		res, err := bench.Fig8(ctx, w, s, 20, 20)
		if err != nil {
			return err
		}
		bench.ChartFig8(w, res)
		return nil
	})
	run("defaultclass", func() error {
		_, err := bench.DefaultClassStats(w, s, eval.Options{})
		return err
	})
	run("minsupsweep", func() error {
		return bench.MinsupSweep(w, s, nil)
	})
	run("topgenes", func() error {
		pts, err := bench.TopGenes(w, s, nil, 0)
		if err != nil {
			return err
		}
		return writeJSON(pts)
	})
	run("groupcount", func() error {
		pts, err := bench.GroupCount(ctx, w, s, nil, 0.9, *budget)
		if err != nil {
			return err
		}
		return writeJSON(pts)
	})
	run("ablation", func() error {
		if _, err := bench.AblationEngines(ctx, w, s, 0.85, 0.9, *budget); err != nil {
			return err
		}
		_, err := bench.AblationPruning(ctx, w, s, 0.8, 10, *budget)
		return err
	})
}
