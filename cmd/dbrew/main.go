// Command dbrew demonstrates binary rewriting (Section II) on the
// compiled-kernel corpus: it specializes a kernel for the 4-point stencil,
// prints rewriting statistics and the generated code, and verifies the
// result against the original.
//
// Usage:
//
//	dbrew -kernel flat_elem               # specialize + listing
//	dbrew -kernel sorted_elem -llvm       # with the LLVM backend (Figure 1)
package main

import (
	"flag"
	"fmt"
	"os"

	dbrewllvm "repro"
	"repro/internal/abi"
	"repro/internal/bench"
	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "flat_elem", "kernel: flat_elem, sorted_elem, flat_line, sorted_line, direct_line")
	llvm := flag.Bool("llvm", false, "post-process the DBrew output with the LLVM backend")
	size := flag.Int("size", 649, "matrix side length")
	flag.Parse()

	w, err := bench.NewWorkload(*size)
	if err != nil {
		fatal(err)
	}
	c := w.Corpus

	elemSig := abi.Signature{Params: []abi.Class{abi.ClassPtr, abi.ClassPtr, abi.ClassPtr, abi.ClassInt}}
	lineSig := abi.Signature{Params: []abi.Class{abi.ClassPtr, abi.ClassPtr, abi.ClassPtr, abi.ClassInt, abi.ClassInt}}

	var entry, sAddr uint64
	var sSize int
	var sig abi.Signature
	switch *kernel {
	case "flat_elem":
		entry, sAddr, sSize, sig = c.FlatElem, w.FlatAddr, w.FlatSize, elemSig
	case "sorted_elem":
		entry, sAddr, sSize, sig = c.SortedElem, w.SortedAddr, w.SortedSize, elemSig
	case "flat_line":
		entry, sAddr, sSize, sig = c.FlatLineCall, w.FlatAddr, w.FlatSize, lineSig
	case "sorted_line":
		entry, sAddr, sSize, sig = c.SortedLineCall, w.SortedAddr, w.SortedSize, lineSig
	case "direct_line":
		entry, sAddr, sSize, sig = c.DirectLineCall, w.FlatAddr, w.FlatSize, lineSig
	default:
		fatal(fmt.Errorf("unknown kernel %q", *kernel))
	}

	r := dbrewllvm.NewRewriter(&dbrewllvm.Engine{Mem: w.Mem}, entry, sig)
	r.Strict = true
	r.SetParPtr(0, sAddr, sSize)
	if *llvm {
		r.SetBackend(dbrewllvm.BackendLLVM)
	}
	tr := trace.New("dbrew")
	r.Trace = tr
	newFn, err := r.Rewrite()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rewrote %s: decoded %d, emitted %d, eliminated %d, inlined %d calls, %d bytes\n\n",
		*kernel, r.Stats.Decoded, r.Stats.Emitted, r.Stats.Eliminated, r.Stats.Inlined, r.Stats.CodeSize)
	if *llvm {
		sp := tr.Find("optimize")
		in, _ := sp.Attr("insts_in")
		out, _ := sp.Attr("insts_out")
		fmt.Printf("LLVM backend: %d -> %d IR instructions, %d bytes of code\n\n", in, out, r.CodeSize)
	}

	lst, err := dbrew.Listing(w.Mem, newFn, r.CodeSize)
	if err != nil {
		fatal(err)
	}
	fmt.Println("generated code:")
	for _, line := range lst {
		fmt.Println("    " + line)
	}

	// Verify one element against the original.
	m := emu.NewMachine(w.Mem)
	idx := uint64(5*w.SZ + 7)
	args := []uint64{sAddr, w.M1.Region.Start, w.M2.Region.Start, idx}
	if len(sig.Params) == 5 {
		args = append(args, 4)
	}
	if _, err := m.Call(entry, emu.CallArgs{Ints: args}, 0); err != nil {
		fatal(err)
	}
	want := w.M2.Get(5, 7)
	if _, err := m.Call(newFn, emu.CallArgs{Ints: args}, 0); err != nil {
		fatal(err)
	}
	got := w.M2.Get(5, 7)
	if got != want {
		fatal(fmt.Errorf("verification failed: %g != %g", got, want))
	}
	fmt.Printf("\nverified: rewritten code matches the original (m2[5][7] = %g)\n", got)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbrew:", err)
	os.Exit(1)
}
