package lift

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// TestLiftSeedsPhisOnDemand: a block gets entry phis only for the registers
// and flags whose incoming value something reads. A loop that touches rdi,
// rax and ZF alone must carry no phi for any other register or flag, where
// seeding every facet of every register gave each block 86; and the raw
// lift of the Section VI flat element kernel, 721 IR instructions with that
// seeding, must be at most half as long.
func TestLiftSeedsPhisOnDemand(t *testing.T) {
	mem := buildFunc(t, func(b *asm.Builder) {
		loop := b.NewLabel()
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.TEST, x86.R64(x86.RDI), x86.R64(x86.RDI))
		b.Bind(loop)
		// ZF reaches the loop head from the entry block and from the latch.
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RDI)})
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RAX))
		b.I(x86.SUB, x86.R64(x86.RDI), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	sig := abi.Sig(abi.ClassInt, abi.ClassInt)
	for _, n := range []uint64{1, 2, 5} {
		if got, lifted := crossCheck(t, mem, sig, DefaultOptions(), []uint64{n}, nil); got != lifted {
			t.Errorf("f(%d): machine %d, lifted %d", n, got, lifted)
		}
	}

	f, err := New(mem, DefaultOptions()).LiftFunc(codeBase, "f", sig)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(f, opt.Config{})
	phis := 0
	for _, blk := range f.Blocks {
		for _, phi := range blk.Phis() {
			phis++
			if !strings.HasPrefix(phi.Nam, "rax.") && !strings.HasPrefix(phi.Nam, "rdi.") &&
				!strings.HasPrefix(phi.Nam, "zf.") {
				t.Errorf("block %s carries a phi for an untouched register or flag: %s", blk.Nam, phi.Nam)
			}
		}
	}
	if phis == 0 {
		t.Errorf("the loop head must merge rax, rdi and zf through phis:\n%s", ir.FormatFunc(f))
	}

	const seededFlatInsts = 721
	kmem := emu.NewMemory(0x10000000)
	c, err := kernels.Build(kmem, 9)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New(kmem, DefaultOptions()).LiftFunc(c.FlatElem, "flat_elem", kernels.ElemSig)
	if err != nil {
		t.Fatal(err)
	}
	if n := flat.NumInsts(); n > seededFlatInsts/2 {
		t.Errorf("raw lift of flat_elem has %d instructions, want at most %d", n, seededFlatInsts/2)
	}
}

// crossBlockSubject is a function whose correctness depends on register or
// flag state crossing a block boundary unwritten.
type crossBlockSubject struct {
	name string
	sig  abi.Signature
	// build assembles the function at codeBase and returns the labels of
	// its int(int) callees, which are lifted first.
	build  func(b *asm.Builder) []asm.Label
	inputs func(mem *emu.Memory) [][]uint64
}

// loopHeadWrite builds f(x, n): rax = x, then n times run head at the loop
// head, where rax still holds its loop-carried value, and add x to rax.
func loopHeadWrite(head func(b *asm.Builder)) func(b *asm.Builder) []asm.Label {
	return func(b *asm.Builder) []asm.Label {
		loop := b.NewLabel()
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.Bind(loop)
		head(b)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.SUB, x86.R64(x86.RSI), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
		return nil
	}
}

// carryThroughInc builds f(a, b): CF is set in the entry block (by setCF),
// passes through a block whose INC/DEC loop must preserve it, and is
// consumed by a jc in a third block. The result is 1000·CF + a + b.
func carryThroughInc(setCF func(b *asm.Builder)) func(b *asm.Builder) []asm.Label {
	return func(b *asm.Builder) []asm.Label {
		incs, test, carry := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		setCF(b)
		b.Jmp(incs)
		b.Bind(incs)
		b.I(x86.INC, x86.R64(x86.RAX))
		b.I(x86.DEC, x86.R64(x86.RSI))
		b.Jcc(x86.CondNE, incs)
		b.Jmp(test)
		b.Bind(test)
		b.Jcc(x86.CondB, carry)
		b.Ret()
		b.Bind(carry)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1000, 8))
		b.Ret()
		return nil
	}
}

func crossBlockSubjects() []crossBlockSubject {
	intPair := abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt)
	headInputs := func(*emu.Memory) [][]uint64 {
		return [][]uint64{{0x0123456789ABCDEF, 1}, {0xFEDCBA9876543210, 3}, {7, 5}}
	}
	carryInputs := func(*emu.Memory) [][]uint64 {
		return [][]uint64{{1, 1}, {5, 3}, {^uint64(2), 4}, {3, 5}}
	}
	return []crossBlockSubject{
		{"mov_al", intPair, loopHeadWrite(func(b *asm.Builder) {
			b.I(x86.MOV, x86.R8L(x86.RAX), x86.Imm(0x5A, 1))
		}), headInputs},
		{"mov_ah", intPair, loopHeadWrite(func(b *asm.Builder) {
			b.I(x86.MOV, x86.RegOp(x86.AH, 1), x86.Imm(0x3C, 1))
		}), headInputs},
		{"mov_ax", intPair, loopHeadWrite(func(b *asm.Builder) {
			b.I(x86.MOV, x86.R16(x86.RAX), x86.Imm(0x1234, 2))
		}), headInputs},
		{"add_eax", intPair, loopHeadWrite(func(b *asm.Builder) {
			// Reads the incoming low half and zeroes the upper half.
			b.I(x86.ADD, x86.R32(x86.RAX), x86.Imm(0x77, 4))
		}), headInputs},
		{"stc_inc_jc", intPair, carryThroughInc(func(b *asm.Builder) { b.I(x86.STC) }), carryInputs},
		{"clc_inc_jc", intPair, carryThroughInc(func(b *asm.Builder) { b.I(x86.CLC) }), carryInputs},
		{"cmp_inc_jc", intPair, carryThroughInc(func(b *asm.Builder) {
			b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
		}), carryInputs},
		{"pointer_facets", abi.Sig(abi.ClassInt, abi.ClassPtr, abi.ClassPtr), func(b *asm.Builder) []asm.Label {
			// Sum the qwords from rdi through rsi. The loop never writes rsi and
			// reads rdi before writing it, so both pointer facets come from
			// entry phis; cmp compares them as pointers.
			loop := b.NewLabel()
			b.I(x86.XOR, x86.R32(x86.RAX), x86.R32(x86.RAX))
			b.I(x86.SUB, x86.R64(x86.RDI), x86.Imm(8, 8))
			b.Bind(loop)
			b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RSI))
			b.I(x86.ADD, x86.R64(x86.RDI), x86.Imm(8, 8))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.MemBD(8, x86.RDI, 0))
			b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
			b.Jcc(x86.CondNE, loop)
			b.I(x86.SUB, x86.R64(x86.RCX), x86.R64(x86.RDI))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
			b.Ret()
			return nil
		}, func(mem *emu.Memory) [][]uint64 {
			arr := mem.Alloc(8*8, 8, "arr")
			for i := 0; i < 8; i++ {
				if err := mem.WriteU(arr.Start+uint64(8*i), 8, uint64(i*i+1)); err != nil {
					panic(err)
				}
			}
			return [][]uint64{{arr.Start, arr.Start + 8}, {arr.Start, arr.Start + 56}, {arr.Start + 16, arr.Start + 40}}
		}},
		{"call_in_loop", intPair, func(b *asm.Builder) []asm.Label {
			// f(x, n) = sum over n iterations of inner(x + i) with
			// inner(y) = 3y, the sum and the counter kept in callee-saved
			// registers across a call that clobbers the caller-saved ones
			// and every XMM register.
			inner, loop := b.NewLabel(), b.NewLabel()
			b.I(x86.PUSH, x86.R64(x86.RBX))
			b.I(x86.PUSH, x86.R64(x86.R12))
			b.I(x86.PUSH, x86.R64(x86.R13))
			b.I(x86.MOV, x86.R64(x86.RBX), x86.R64(x86.RSI))
			b.I(x86.MOV, x86.R64(x86.R13), x86.R64(x86.RDI))
			b.I(x86.XOR, x86.R32(x86.R12), x86.R32(x86.R12))
			b.I(x86.MOVQGP, x86.X(x86.XMM1), x86.R64(x86.RDI))
			b.Bind(loop)
			b.I(x86.MOV, x86.R64(x86.RDI), x86.R64(x86.R13))
			b.CallLabel(inner)
			// xmm1 is clobbered: redefine it before reading it back.
			b.I(x86.MOVQGP, x86.X(x86.XMM1), x86.R64(x86.RAX))
			b.I(x86.MOVQGP, x86.R64(x86.RAX), x86.X(x86.XMM1))
			b.I(x86.ADD, x86.R64(x86.R12), x86.R64(x86.RAX))
			b.I(x86.ADD, x86.R64(x86.R13), x86.Imm(1, 8))
			b.I(x86.SUB, x86.R64(x86.RBX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.R12))
			b.I(x86.POP, x86.R64(x86.R13))
			b.I(x86.POP, x86.R64(x86.R12))
			b.I(x86.POP, x86.R64(x86.RBX))
			b.Ret()
			b.Bind(inner)
			b.I(x86.LEA, x86.R64(x86.RAX), x86.MemBIS(8, x86.RDI, x86.RDI, 2, 0))
			b.Ret()
			return []asm.Label{inner}
		}, func(*emu.Memory) [][]uint64 { return [][]uint64{{4, 1}, {10, 3}, {1 << 40, 6}} }},
	}
}

// TestLiftCrossBlockState runs each subject lifted at O0 and O3 through the
// IR interpreter and compares it with the emulator.
func TestLiftCrossBlockState(t *testing.T) {
	levels := []struct {
		name string
		cfg  opt.Config
	}{{"O0", opt.Config{}}, {"O3", opt.O3()}}
	for _, sub := range crossBlockSubjects() {
		for _, lv := range levels {
			sub, lv := sub, lv
			t.Run(sub.name+"_"+lv.name, func(t *testing.T) {
				b := asm.NewBuilder()
				callees := sub.build(b)
				code, labels, err := b.Assemble(codeBase)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				mem := emu.NewMemory(0x10000000)
				if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
					t.Fatal(err)
				}
				l := New(mem, DefaultOptions())
				for i, c := range callees {
					if _, err := l.LiftFunc(labels[c], fmt.Sprintf("callee%d", i), abi.Sig(abi.ClassInt, abi.ClassInt)); err != nil {
						t.Fatalf("lift callee: %v", err)
					}
				}
				f, err := l.LiftFunc(codeBase, sub.name, sub.sig)
				if err != nil {
					t.Fatalf("lift: %v", err)
				}
				opt.Optimize(f, lv.cfg)
				if err := ir.Verify(f); err != nil {
					t.Fatalf("verify: %v\n%s", err, ir.FormatFunc(f))
				}
				for _, in := range sub.inputs(mem) {
					want, err := emu.NewMachine(mem).Call(codeBase, emu.CallArgs{Ints: in}, 1_000_000)
					if err != nil {
						t.Fatalf("emulate %#x: %v", in, err)
					}
					args := make([]ir.RV, len(in))
					for i, v := range in {
						args[i] = ir.RV{Lo: v}
					}
					got, err := ir.NewInterp(mem).CallFunc(f, args)
					if err != nil {
						t.Fatalf("interp %#x: %v\n%s", in, err, ir.FormatFunc(f))
					}
					if got.Lo != want {
						t.Errorf("f(%#x): machine %#x, lifted %#x\n%s", in, want, got.Lo, ir.FormatFunc(f))
					}
				}
			})
		}
	}
}
