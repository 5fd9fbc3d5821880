package emu

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/x86"
)

// The SSE kernel battery: every SSE instruction the decoder accepts, run on
// the interpreter and on the block engine over edge lane values, aligned,
// misaligned, line-splitting, region-crossing and unmapped addresses.

const (
	sseCodeAt  = 0x5000
	sseBufAt   = 0x10000
	sseBufLen  = 128
	sseHoleAt  = 0x20000 // mapped by nothing
	sseStackAt = 0x30000 // a page of stack, so a rig costs no 1 MiB default stack
	sseMemDisp = 8       // the memory forms address [rdi+8]
)

// sseForm is one decoded SSE instruction and its bytes.
type sseForm struct {
	code []byte
	in   x86.Inst
}

// sseForms decodes every SSE instruction of the 0F map: each mandatory
// prefix, with and without REX.W, in a register form (reg field xmm2/rdx,
// r/m field xmm1/rcx) and a memory form ([rdi+8]), with three immediates
// for the opcodes that take one. The SSE opcodes are the x86.Op range
// MOVSD_X..MOVMSKPD.
func sseForms(tb testing.TB) []sseForm {
	tb.Helper()
	seen := map[string]bool{}
	var forms []sseForm
	for _, pfx := range [][]byte{nil, {0x66}, {0xF2}, {0xF3}} {
		for _, rex := range [][]byte{nil, {0x48}} {
			for opc := 0; opc < 256; opc++ {
				for _, modrm := range [][]byte{{0xD1}, {0x57, sseMemDisp}} {
					for _, imm := range []byte{0x1B, 0x02, 0xFF} {
						var b []byte
						b = append(append(append(b, pfx...), rex...), 0x0F, byte(opc))
						b = append(append(b, modrm...), imm, 0x90)
						in, err := x86.Decode(b, sseCodeAt)
						if err != nil || in.Op < x86.MOVSD_X || in.Op > x86.MOVMSKPD {
							continue
						}
						code := append(b[:in.Len:in.Len], 0xC3)
						if !seen[string(code)] {
							seen[string(code)] = true
							forms = append(forms, sseForm{code, in})
						}
					}
				}
			}
		}
	}
	if len(forms) == 0 {
		tb.Fatal("the decoder accepted no SSE instruction")
	}
	return forms
}

// sseLanes are the 64-bit edge values a lane, a GP register or a memory
// word takes: two NaNs with different payloads, signed zeros, denormals,
// infinities, the values around the int32 and int64 limits as doubles and
// as integers, and pairs of single-precision edge values.
var sseLanes = []uint64{
	0x7FF8000000000001,    // quiet NaN, payload 1
	0xFFF4000000000002,    // negative signalling NaN, payload 2
	0, 0x8000000000000000, // +0, -0
	1, 0x800FFFFFFFFFFFFF, // denormals
	0x7FF0000000000000, 0xFFF0000000000000, // +Inf, -Inf
	0x3FF8000000000000, 0xC002000000000000, // 1.5, -2.25
	0x41DFFFFFFFC00000, 0x41E0000000000000, // 2^31-1, 2^31
	0xC1E0000000200000, 0xC3E0000000000000, 0x43E0000000000000, // -2^31-1, -2^63, 2^63
	0x7FFFFFFF, 0x80000000, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
	0x7FC00001FFA00002, // single NaNs with different payloads
	0x8000000000000001, // single -0 and denormal
	0x7F800000FF800000, // single +Inf and -Inf
	0x3FC00000C0400000, // single 1.5 and -3
}

func sseLane(i int) uint64 { return sseLanes[i%len(sseLanes)] }

// sseInput is the machine state an SSE case starts from.
type sseInput struct {
	xmm1, xmm2 XMMReg
	rcx, rdx   uint64
	rdi        uint64
	flags      Flags
	fill       int // memory word i holds sseLane(fill+i)
}

// sseOutcome is everything the two engines must agree on.
type sseOutcome struct {
	gpr       [16]uint64
	xmm       [16]XMMReg
	flags     Flags
	mem       []byte
	cycles    float64
	instCount uint64
	err       string
}

// sseRig is one engine with the instruction under test placed at
// sseCodeAt and the data buffer at sseBufAt.
type sseRig struct {
	m   *Machine
	buf *Region
}

func newSSERig(tb testing.TB, code []byte, interp bool) sseRig {
	tb.Helper()
	mem := NewMemory(0x100000)
	if _, err := mem.MapBytes(sseCodeAt, code, "code"); err != nil {
		tb.Fatal(err)
	}
	buf, err := mem.Map(sseBufAt, sseBufLen, "buf")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := mem.Map(sseStackAt, 4096, "stack"); err != nil {
		tb.Fatal(err)
	}
	m := NewMachine(mem)
	m.Interp, m.Traces = interp, false
	return sseRig{m, buf}
}

func (r sseRig) run(in sseInput) sseOutcome {
	m := r.m
	m.Reset()
	for i := 0; i < sseBufLen/8; i++ {
		v := sseLane(in.fill + i)
		for j := 0; j < 8; j++ {
			r.buf.Data[8*i+j] = byte(v >> (8 * j))
		}
	}
	m.XMM[1], m.XMM[2] = in.xmm1, in.xmm2
	m.GPR[x86.RCX], m.GPR[x86.RDX], m.GPR[x86.RDI] = in.rcx, in.rdx, in.rdi
	m.GPR[x86.RSP] = sseStackAt + 4096 - 64
	m.Flags = in.flags
	_, err := m.Call(sseCodeAt, CallArgs{}, 10)
	out := sseOutcome{gpr: m.GPR, xmm: m.XMM, flags: m.Flags, mem: bytes.Clone(r.buf.Data),
		cycles: m.Cycles, instCount: m.InstCount}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// sseDiff describes how the block engine's outcome differs from the
// interpreter's, or returns "".
func sseDiff(interp, blocks sseOutcome) string {
	switch {
	case interp.err != blocks.err:
		return fmt.Sprintf("error: interp %q, blocks %q", interp.err, blocks.err)
	case interp.xmm != blocks.xmm:
		return fmt.Sprintf("XMM: interp %x, blocks %x", interp.xmm[:3], blocks.xmm[:3])
	case interp.gpr != blocks.gpr:
		return fmt.Sprintf("GPR: interp %x, blocks %x", interp.gpr, blocks.gpr)
	case interp.flags != blocks.flags:
		return fmt.Sprintf("flags: interp %+v, blocks %+v", interp.flags, blocks.flags)
	case !bytes.Equal(interp.mem, blocks.mem):
		return fmt.Sprintf("memory: interp %x, blocks %x", interp.mem, blocks.mem)
	case interp.cycles != blocks.cycles:
		return fmt.Sprintf("Cycles: interp %v, blocks %v", interp.cycles, blocks.cycles)
	case interp.instCount != blocks.instCount:
		return fmt.Sprintf("InstCount: interp %d, blocks %d", interp.instCount, blocks.instCount)
	}
	return ""
}

// sseAddrs are the values of rdi a memory form runs with: [rdi+8] aligned,
// misaligned, split across a cache line, running past the buffer's end,
// and unmapped.
var sseAddrs = []uint64{sseBufAt + 8, sseBufAt, sseBufAt + 44, sseBufAt + sseBufLen - 12, sseHoleAt}

// TestSSEKernelEngines holds the block engine to the interpreter on every
// SSE instruction the decoder accepts, in every operand form: XMM, GPR,
// flags, memory, Cycles, InstCount and error text agree, faults included.
func TestSSEKernelEngines(t *testing.T) {
	for op := x86.MOVSD_X; op <= x86.MOVMSKPD; op++ {
		in := x86.Inst{Op: op, Dst: x86.X(x86.XMM0), Src: x86.X(x86.XMM1)}
		if sseOp(&in) == nil {
			t.Errorf("%v has no SSE kernel entry", op)
		}
	}
	forms := sseForms(t)
	decoded := map[x86.Op]bool{}
	faults := map[string]int{}
	for _, f := range forms {
		decoded[f.in.Op] = true
		interp, blocks := newSSERig(t, f.code, true), newSSERig(t, f.code, false)
		addrs := sseAddrs[:1]
		if f.in.Src.Kind == x86.KMem || f.in.Dst.Kind == x86.KMem {
			addrs = sseAddrs
		}
		for i := range sseLanes {
			for j := range sseLanes {
				for a, rdi := range addrs {
					in := sseInput{
						xmm1:  XMMReg{Lo: sseLane(j), Hi: sseLane(j + 5)},
						xmm2:  XMMReg{Lo: sseLane(i), Hi: sseLane(i + 3)},
						rcx:   sseLane(j),
						rdx:   sseLane(i + 7),
						rdi:   rdi,
						flags: FlagState(x86.FlagSet(i*7 + j + a)),
						fill:  i + j,
					}
					want, got := interp.run(in), blocks.run(in)
					if d := sseDiff(want, got); d != "" {
						t.Fatalf("%v (% x) with %+v: %s", &f.in, f.code, in, d)
					}
					if want.err != "" {
						faults[fmt.Sprint(f.in.Op, rdi)]++
					}
				}
			}
		}
	}
	for op := x86.MOVSD_X; op <= x86.MOVMSKPD; op++ {
		if !decoded[op] {
			t.Errorf("no decoded form of %v was run", op)
		}
	}
	// The faults the battery must have reached on both engines.
	for _, c := range []struct {
		op   x86.Op
		addr uint64
	}{
		{x86.MOVAPD, sseBufAt}, {x86.MOVDQA, sseBufAt}, // misaligned loads and stores
		{x86.ADDSD, sseHoleAt}, {x86.MOVSD_X, sseHoleAt}, // unmapped load and store
		{x86.MOVUPS, sseBufAt + sseBufLen - 12}, // past the region's end
	} {
		if faults[fmt.Sprint(c.op, c.addr)] == 0 {
			t.Errorf("%v at rdi %#x never faulted", c.op, c.addr)
		}
	}
}

// FuzzSSEEngines runs one decoded SSE instruction on random lanes, GP
// values, flags and addresses, on the interpreter and on the block engine,
// and demands the same outcome.
func FuzzSSEEngines(f *testing.F) {
	forms := sseForms(f)
	f.Add(uint16(0), uint64(0x7FF8000000000001), uint64(0), uint64(0x8000000000000000), uint64(1), uint64(0x80000000), uint8(8), uint8(0))
	f.Add(uint16(7), uint64(0x41E0000000000000), uint64(3), uint64(0xFFF0000000000000), uint64(2), uint64(1), uint8(3), uint8(0x3F))
	rigs := map[int][2]sseRig{} // per form: interpreter, blocks
	f.Fuzz(func(t *testing.T, form uint16, d0, d1, s0, s1, gp uint64, addr, flags uint8) {
		i := int(form) % len(forms)
		fm, r := forms[i], rigs[i]
		if r[0].m == nil {
			r = [2]sseRig{newSSERig(t, fm.code, true), newSSERig(t, fm.code, false)}
			rigs[i] = r
		}
		in := sseInput{
			xmm1:  XMMReg{Lo: s0, Hi: s1},
			xmm2:  XMMReg{Lo: d0, Hi: d1},
			rcx:   s0,
			rdx:   gp,
			rdi:   sseBufAt + uint64(addr%sseBufLen),
			flags: FlagState(x86.FlagSet(flags) & x86.AllFlags),
			fill:  int(gp % uint64(len(sseLanes))),
		}
		if addr >= 0xF0 {
			in.rdi = sseHoleAt
		}
		if d := sseDiff(r[0].run(in), r[1].run(in)); d != "" {
			t.Fatalf("%v (% x) with %+v: %s", &fm.in, fm.code, in, d)
		}
	})
}
