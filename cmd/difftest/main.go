// Command difftest runs the differential validator from the command line:
// randomly generated x86-64 programs are executed along every path of the
// reproduction (native emulation, lift+interpret, lift+O3+interpret,
// lift+O3+JIT, DBrew identity rewrite) and all results — including the
// scratch memory window — are compared bit-for-bit.
//
// Usage:
//
//	difftest -start 1 -seeds 500        # seeds 1..500
//	difftest -seeds 100 -v              # print each program description
//
// A non-zero exit status means at least one divergence was found; the
// offending seed, path, and inputs are printed so the failure can be
// replayed with `go test -run TestDifferential ./internal/crosstest` after
// adding the seed there.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/crosstest"
	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/lift"
	"repro/internal/opt"
)

var inputs = [][2]uint64{
	{0, 0},
	{1, 2},
	{0xFFFFFFFFFFFFFFFF, 1},
	{0x8000000000000000, 0x7FFFFFFFFFFFFFFF},
	{12345, 678910},
	{0xDEADBEEF, 0xCAFEBABE12345678},
}

func main() {
	start := flag.Int64("start", 1, "first seed")
	seeds := flag.Int64("seeds", 100, "number of seeds to run")
	verbose := flag.Bool("v", false, "print each program description")
	flag.Parse()

	failures := 0
	for seed := *start; seed < *start+*seeds; seed++ {
		p, err := crosstest.Generate(seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: generate: %v\n", seed, err)
			failures++
			continue
		}
		if *verbose {
			fmt.Printf("seed %-6d %s\n", seed, p.Desc)
		}
		if err := runSeed(p); err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, err)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d seeds diverged\n", failures, *seeds)
		os.Exit(1)
	}
	fmt.Printf("all %d seeds agree across all five paths\n", *seeds)
}

// runSeed builds every variant of one program and compares all paths on the
// fixed input set.
func runSeed(p *crosstest.Program) error {
	sig := p.Sig()
	mem, entry, scratch, err := p.Place()
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}

	lRaw := lift.New(mem, lift.DefaultOptions())
	fRaw, err := lRaw.LiftFunc(entry, "raw", sig)
	if err != nil {
		return fmt.Errorf("lift: %w", err)
	}
	lOpt := lift.New(mem, lift.DefaultOptions())
	fOpt, err := lOpt.LiftFunc(entry, "opt", sig)
	if err != nil {
		return fmt.Errorf("lift2: %w", err)
	}
	// Strict FP: fast-math legitimately changes signed zeros/association.
	cfg := opt.O3()
	cfg.FastMath = false
	opt.Optimize(fOpt, cfg)
	if err := ir.Verify(fOpt); err != nil {
		return fmt.Errorf("post-O3 verify: %w", err)
	}
	comp := jit.NewCompiler(mem)
	jitEntry, err := comp.CompileModule(lOpt.Module, "opt")
	if err != nil {
		return fmt.Errorf("jit: %w", err)
	}
	rw := dbrew.NewRewriter(mem, entry, sig)
	dbrewEntry, err := rw.Rewrite()
	if err != nil {
		return fmt.Errorf("dbrew: %w", err)
	}
	if rw.Stats.Failed {
		return fmt.Errorf("dbrew fell back: %v", rw.Stats.Err)
	}

	for _, in := range inputs {
		if err := crosstest.ResetScratch(mem, scratch); err != nil {
			return err
		}
		want, wantBuf, err := crosstest.RunNative(mem, entry, scratch, p, in[0], in[1])
		if err != nil {
			return fmt.Errorf("in=%v: native: %w", in, err)
		}

		crosstest.ResetScratch(mem, scratch)
		got, buf, err := interp(mem, fRaw, scratch, in)
		if err != nil {
			return fmt.Errorf("in=%v: interp: %w", in, err)
		}
		if err := compare("lift+interp", in, want, got, wantBuf, buf); err != nil {
			return err
		}

		crosstest.ResetScratch(mem, scratch)
		got, buf, err = interp(mem, fOpt, scratch, in)
		if err != nil {
			return fmt.Errorf("in=%v: O3 interp: %w", in, err)
		}
		if err := compare("lift+O3+interp", in, want, got, wantBuf, buf); err != nil {
			return err
		}

		crosstest.ResetScratch(mem, scratch)
		got, buf, err = crosstest.RunNative(mem, jitEntry, scratch, p, in[0], in[1])
		if err != nil {
			return fmt.Errorf("in=%v: jit run: %w", in, err)
		}
		if err := compare("lift+O3+jit", in, want, got, wantBuf, buf); err != nil {
			return err
		}

		crosstest.ResetScratch(mem, scratch)
		got, buf, err = crosstest.RunNative(mem, dbrewEntry, scratch, p, in[0], in[1])
		if err != nil {
			return fmt.Errorf("in=%v: dbrew run: %w", in, err)
		}
		if err := compare("dbrew", in, want, got, wantBuf, buf); err != nil {
			return err
		}
	}
	return nil
}

func interp(mem *emu.Memory, f *ir.Func, scratch uint64, in [2]uint64) (uint64, []byte, error) {
	ip := ir.NewInterp(mem)
	ip.MaxSteps = 5_000_000
	res, err := ip.CallFunc(f, []ir.RV{{Lo: in[0]}, {Lo: in[1]}, {Lo: scratch}})
	if err != nil {
		return 0, nil, err
	}
	buf, err := mem.Read(scratch, crosstest.ScratchSize)
	return res.Lo, buf, err
}

func compare(path string, in [2]uint64, want, got uint64, wantBuf, buf []byte) error {
	if got != want {
		return fmt.Errorf("%s in=%v: result %#x, native %#x", path, in, got, want)
	}
	if !bytes.Equal(wantBuf, buf) {
		return fmt.Errorf("%s in=%v: scratch memory diverges", path, in)
	}
	return nil
}
