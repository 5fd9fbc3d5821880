package emu

import (
	"fmt"
	"testing"

	"repro/internal/x86"
)

func flagSetOf(f Flags) x86.FlagSet {
	var s x86.FlagSet
	for i, on := range [...]bool{f.CF, f.PF, f.AF, f.ZF, f.SF, f.OF} {
		if on {
			s |= 1 << uint(i)
		}
	}
	return s
}

// execShape executes one instruction and reports whether it ran. A shape
// the opcode does not take may make exec fail or panic.
func execShape(m *Machine, in *x86.Inst) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return m.exec(in) == nil
}

// TestFlagTableMatchesEmulator holds x86's flag table to the interpreter:
// over boundary operands and several incoming flag states, every opcode the
// interpreter executes, in every shape it takes, leaves each flag outside
// its write set as it found it. The function lifter's liveness relies on the
// same table, so a flag the table says survives really does.
func TestFlagTableMatchesEmulator(t *testing.T) {
	rax, rcx := x86.R64(x86.RAX), x86.R64(x86.RCX)
	cl := x86.RegOp(x86.RCX, 1)
	shapes := []x86.Inst{
		{},
		{Dst: rax},
		{Dst: rax, Src: rcx},
		{Dst: x86.R32(x86.RAX), Src: x86.R32(x86.RCX)},
		{Dst: x86.R8L(x86.RAX), Src: x86.R8L(x86.RCX)},
		{Dst: rax, Src: cl},
		{Dst: x86.R32(x86.RAX), Src: cl},
		{Dst: x86.R8L(x86.RAX), Src: cl},
		{Dst: rax, Src: x86.Imm(0, 1)},
		{Dst: rax, Src: x86.Imm(1, 1)},
		{Dst: rax, Src: x86.Imm(5, 1)},
		{Dst: rax, Src: x86.Imm(64, 1)},
		{Dst: rax, Src: rcx, Src2: x86.Imm(3, 1)},
		{Dst: x86.X(x86.XMM0), Src: x86.X(x86.XMM1)},
	}
	operands := []uint64{0, 1, 2, 0x0F, 0x10, 0x7F, 0x80, 0xFF, 0x7FFFFFFF, 0x80000000,
		0x7FFFFFFFFFFFFFFF, 0x8000000000000000, ^uint64(0)}
	incoming := []Flags{{}, {CF: true, PF: true, AF: true, ZF: true, SF: true, OF: true},
		{CF: true, AF: true, SF: true}, {PF: true, ZF: true, OF: true}}
	m := NewMachine(NewMemory(0x10000))
	executed := map[x86.Op]bool{}
	for op := x86.Op(1); op.String() != fmt.Sprintf("op%d", op); op++ {
		conds := []x86.Cond{0}
		if op == x86.JCC || op == x86.SETCC || op == x86.CMOVCC {
			conds = []x86.Cond{x86.CondO, x86.CondB, x86.CondE, x86.CondBE, x86.CondS, x86.CondP, x86.CondL, x86.CondLE}
		}
		for _, shape := range shapes {
			for _, c := range conds {
				in := shape
				in.Op, in.Cond = op, c
				_, written := in.FlagEffects()
				for _, a := range operands {
					for _, b := range operands {
						for _, f0 := range incoming {
							m.GPR[x86.RAX], m.GPR[x86.RCX], m.GPR[x86.RDX] = a, b, 0
							m.XMM[0], m.XMM[1] = XMMReg{Lo: a}, XMMReg{Lo: b}
							m.Flags = f0
							if !execShape(m, &in) {
								continue
							}
							executed[op] = true
							if changed := (flagSetOf(f0) ^ flagSetOf(m.Flags)) &^ written; changed != 0 {
								t.Fatalf("%v with rax=%#x rcx=%#x changed flags %06b outside its write set %06b",
									in, a, b, changed, written)
							}
						}
					}
				}
			}
		}
	}
	for _, op := range []x86.Op{x86.ADD, x86.ADC, x86.INC, x86.SHL, x86.SAR, x86.ROL, x86.STC,
		x86.SETCC, x86.CMOVCC, x86.IMUL3, x86.DIV, x86.UCOMISD, x86.ADDSD} {
		if !executed[op] {
			t.Errorf("no shape of %v was executed", op)
		}
	}
}
