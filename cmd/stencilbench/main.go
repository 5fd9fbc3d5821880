// Command stencilbench regenerates the paper's deterministic evaluation
// artifacts (Section VI): the Figure 9a and 9b running times on the cycle
// model, the Figure 6, 7 and 8 listings, the Section VI-B
// forced-vectorization experiment, the design-choice ablations DESIGN.md
// calls out, the corpus scorecard and the Futamura row. Wall-clock
// measurements, Figure 10's transformation times among them, are the
// benchmark/ module's (bash benchmark/run.sh).
//
// Usage:
//
//	stencilbench -fig 9a            # element-kernel running times
//	stencilbench -fig 9b            # line-kernel running times
//	stencilbench -fig 6             # flag-cache IR comparison
//	stencilbench -fig 7             # serialized stencil data structures
//	stencilbench -fig 8             # DBrew vs DBrew+LLVM listings
//	stencilbench -fig vec           # forced vectorization
//	stencilbench -fig ablation      # lifter/pipeline ablations
//	stencilbench -fig coverage      # rewriter-evaluation corpus scorecard
//	stencilbench -fig futamura      # interpreter-specialization benchmark row
//	stencilbench -fig all           # everything
//
// With -fig coverage, -coverage-out FILE additionally writes the scorecard
// as deterministic JSON (the committed BENCH_coverage.json artifact).
//
// Flags -size and -rows trade fidelity for speed: the paper's matrix is
// 649×649 (9×9 base grid with 80 interlines); the emulated sample is
// extrapolated to 50,000 Jacobi iterations.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/corpus"
)

// figures lists the values -fig accepts besides all.
var figures = []string{"7", "9a", "9b", "6", "8", "vec", "ablation", "coverage", "futamura"}

func main() {
	fig := flag.String("fig", "all", fmt.Sprintf("figure to regenerate: %v or all", figures))
	covOut := flag.String("coverage-out", "", "with -fig coverage: also write the scorecard JSON to this file")
	size := flag.Int("size", 649, "matrix side length (paper: 649)")
	rows := flag.Int("rows", 2, "interior rows to emulate per variant")
	flag.Parse()
	if *fig != "all" && !slices.Contains(figures, *fig) {
		fatal(fmt.Errorf("unknown -fig %q (want one of %v or all)", *fig, figures))
	}

	w, err := bench.NewWorkload(*size)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %dx%d matrix (paper: 9x9 base grid, 80 interlines -> 649), 4-point stencil\n\n", *size, *size)

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("7", func() error {
		out, err := w.Figure7Layouts()
		if err != nil {
			return err
		}
		fmt.Println("Figure 7 — the two generic stencil data structures as serialized:")
		fmt.Println(out)
		return nil
	})
	run("9a", func() error {
		r, err := w.RunFigure9(bench.Element, *rows)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	run("9b", func() error {
		r, err := w.RunFigure9(bench.Line, *rows)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	run("6", func() error {
		with, without, err := w.Figure6IR()
		if err != nil {
			return err
		}
		fmt.Println("Figure 6 — optimized IR of max(a, b) with the flag cache:")
		fmt.Println(indent(with))
		fmt.Println("and without it (the SF/OF reconstruction survives -O3):")
		fmt.Println(indent(without))
		return nil
	})
	run("8", func() error {
		d, l, err := w.Figure8Listings()
		if err != nil {
			return err
		}
		fmt.Println("Figure 8 — specialized stencil, plain DBrew backend:")
		for _, s := range d {
			fmt.Println("    " + s)
		}
		fmt.Println("\nafter LLVM post-processing:")
		for _, s := range l {
			fmt.Println("    " + s)
		}
		fmt.Println()
		return nil
	})
	run("vec", func() error {
		r, err := w.RunVectorization(*rows)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	run("ablation", func() error {
		a, err := w.RunAblations(*rows)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblations(a))
		for _, mode := range []bench.Mode{bench.DBrewLLVM, bench.LLVMFix} {
			p, err := w.RunPassAblation(*rows, mode)
			if err != nil {
				return err
			}
			fmt.Println(bench.FormatPassAblation(p, mode))
		}
		return nil
	})
	run("coverage", func() error {
		sc, err := corpus.BuildScorecard()
		if err != nil {
			return err
		}
		fmt.Println("Coverage scorecard — hard-idiom corpus across every execution path:")
		fmt.Println(corpus.FormatScorecard(sc))
		if bad := sc.Gate(); len(bad) != 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "stencilbench: coverage gate:", msg)
			}
			return fmt.Errorf("coverage gate failed (%d violations)", len(bad))
		}
		if *covOut != "" {
			data, err := sc.Encode()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*covOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("scorecard written to %s\n", *covOut)
		}
		return nil
	})
	run("futamura", func() error {
		rep, err := corpus.RunFutamura()
		if err != nil {
			return err
		}
		fmt.Println("Futamura projection — bytecode interpreter specialized against its program:")
		fmt.Printf("    inputs checked      %d (randomized, fixed seed)\n", rep.Inputs)
		fmt.Printf("    interpreted         %.0f cycles/call\n", rep.InterpCycles)
		fmt.Printf("    specialized         %.0f cycles/call (%.2fx)\n", rep.SpecCycles, rep.Speedup)
		if rep.SpecO3Cycles != 0 {
			fmt.Printf("    specialized + O3    %.0f cycles/call (%.2fx)\n", rep.SpecO3Cycles, rep.SpeedupO3)
		}
		return nil
	})
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stencilbench:", err)
	os.Exit(1)
}
