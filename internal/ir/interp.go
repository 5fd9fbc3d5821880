package ir

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/emu"
)

// RV is a runtime value: up to 128 bits stored as two little-endian lanes.
// Interpretation (integer, float, pointer, vector) is type-directed.
type RV struct {
	Lo, Hi uint64
}

// RVFloat builds a double runtime value.
func RVFloat(v float64) RV { return RV{Lo: math.Float64bits(v)} }

// F64 reads the value as a double.
func (v RV) F64() float64 { return math.Float64frombits(v.Lo) }

// Interp is a reference interpreter for IR functions operating on an
// emulated address space, so results are directly comparable with machine
// code execution.
type Interp struct {
	Mem *emu.Memory
	// MaxSteps bounds total executed instructions (0 = 10M default).
	MaxSteps int

	globalAddr map[*Global]uint64
	steps      int
}

// NewInterp returns an interpreter over mem.
func NewInterp(mem *emu.Memory) *Interp {
	return &Interp{Mem: mem, globalAddr: make(map[*Global]uint64)}
}

// GlobalAddr returns (allocating on first use) the address of a global. If
// the global records an original machine address that is already mapped, it
// is reused.
func (ip *Interp) GlobalAddr(g *Global) (uint64, error) {
	if a, ok := ip.globalAddr[g]; ok {
		return a, nil
	}
	size := len(g.Init)
	if size == 0 {
		size = g.Ty.Size()
	}
	if g.Addr != 0 {
		if _, err := ip.Mem.Bytes(g.Addr, size); err == nil {
			ip.globalAddr[g] = g.Addr
			return g.Addr, nil
		}
	}
	r := ip.Mem.Alloc(size, 16, "global."+g.Nam)
	copy(r.Data, g.Init)
	ip.globalAddr[g] = r.Start
	return r.Start, nil
}

type frame struct {
	vals map[*Inst]RV
	args []RV
}

// CallFunc executes f with the given arguments and returns the result.
func (ip *Interp) CallFunc(f *Func, args []RV) (RV, error) {
	if len(args) != len(f.Params) {
		return RV{}, fmt.Errorf("ir: call %s with %d args, want %d", f.Nam, len(args), len(f.Params))
	}
	max := ip.MaxSteps
	if max == 0 {
		max = 10_000_000
	}
	fr := &frame{vals: make(map[*Inst]RV), args: args}
	blk := f.Entry()
	var prev *Block
	for {
		// Phase 1: evaluate phis in parallel.
		phis := blk.Phis()
		if len(phis) > 0 {
			tmp := make([]RV, len(phis))
			for i, p := range phis {
				found := false
				for k, inc := range p.Incoming {
					if inc == prev {
						v, err := ip.operand(fr, p.Args[k])
						if err != nil {
							return RV{}, err
						}
						tmp[i] = v
						found = true
						break
					}
				}
				if !found {
					return RV{}, fmt.Errorf("ir: phi %s in %s has no incoming for pred", p.Ident(), blk.Nam)
				}
			}
			for i, p := range phis {
				fr.vals[p] = tmp[i]
			}
		}
		// Phase 2: straight-line execution.
		for _, in := range blk.Insts[len(phis):] {
			ip.steps++
			if ip.steps > max {
				return RV{}, fmt.Errorf("ir: step budget exhausted in %s", f.Nam)
			}
			switch in.Op {
			case OpRet:
				if len(in.Args) == 0 {
					return RV{}, nil
				}
				return ip.operand(fr, in.Args[0])
			case OpBr:
				prev, blk = blk, in.Blocks[0]
			case OpCondBr:
				c, err := ip.operand(fr, in.Args[0])
				if err != nil {
					return RV{}, err
				}
				if c.Lo&1 != 0 {
					prev, blk = blk, in.Blocks[0]
				} else {
					prev, blk = blk, in.Blocks[1]
				}
			case OpUnreachable:
				return RV{}, fmt.Errorf("ir: unreachable executed in %s", f.Nam)
			default:
				v, err := ip.eval(fr, in)
				if err != nil {
					return RV{}, fmt.Errorf("ir: %s: %s: %w", f.Nam, FormatInst(in), err)
				}
				if in.Ty != Void {
					fr.vals[in] = v
				}
				continue
			}
			break // took a branch or returned
		}
	}
}

// operand resolves a Value to its runtime value.
func (ip *Interp) operand(fr *frame, v Value) (RV, error) {
	switch x := v.(type) {
	case *Inst:
		rv, ok := fr.vals[x]
		if !ok {
			return RV{}, fmt.Errorf("use of unevaluated value %s", x.Ident())
		}
		return rv, nil
	case *ConstInt:
		return RV{Lo: x.V, Hi: x.Hi}, nil
	case *ConstFloat:
		return RV{Lo: x.Bits()}, nil
	case *Param:
		return fr.args[x.Idx], nil
	case *Undef:
		return RV{}, nil
	case *Zero:
		return RV{}, nil
	case *Global:
		a, err := ip.GlobalAddr(x)
		return RV{Lo: a}, err
	}
	return RV{}, fmt.Errorf("unsupported operand %T", v)
}

// lane helpers treat an RV as a 16-byte little-endian buffer.

func getLane(v RV, bits, idx int) uint64 {
	switch bits {
	case 64:
		if idx == 0 {
			return v.Lo
		}
		return v.Hi
	case 32:
		w := [4]uint64{v.Lo & 0xFFFFFFFF, v.Lo >> 32, v.Hi & 0xFFFFFFFF, v.Hi >> 32}
		return w[idx]
	case 16:
		sh := uint(idx%4) * 16
		if idx < 4 {
			return v.Lo >> sh & 0xFFFF
		}
		return v.Hi >> sh & 0xFFFF
	case 8:
		sh := uint(idx%8) * 8
		if idx < 8 {
			return v.Lo >> sh & 0xFF
		}
		return v.Hi >> sh & 0xFF
	}
	return 0
}

func setLane(v *RV, bits, idx int, val uint64) {
	switch bits {
	case 64:
		if idx == 0 {
			v.Lo = val
		} else {
			v.Hi = val
		}
	case 32:
		sh := uint(idx%2) * 32
		mask := uint64(0xFFFFFFFF) << sh
		if idx < 2 {
			v.Lo = v.Lo&^mask | (val&0xFFFFFFFF)<<sh
		} else {
			v.Hi = v.Hi&^mask | (val&0xFFFFFFFF)<<sh
		}
	case 16:
		sh := uint(idx%4) * 16
		mask := uint64(0xFFFF) << sh
		if idx < 4 {
			v.Lo = v.Lo&^mask | (val&0xFFFF)<<sh
		} else {
			v.Hi = v.Hi&^mask | (val&0xFFFF)<<sh
		}
	case 8:
		sh := uint(idx%8) * 8
		mask := uint64(0xFF) << sh
		if idx < 8 {
			v.Lo = v.Lo&^mask | (val&0xFF)<<sh
		} else {
			v.Hi = v.Hi&^mask | (val&0xFF)<<sh
		}
	}
}

func maskBits(v uint64, b int) uint64 {
	if b >= 64 {
		return v
	}
	return v & ((1 << uint(b)) - 1)
}

func sext(v uint64, b int) int64 {
	if b >= 64 {
		return int64(v)
	}
	sh := uint(64 - b)
	return int64(v<<sh) >> sh
}

// elemInfo returns lane count and per-lane bit width for scalar-or-vector t.
func elemInfo(t *Type) (lanes, laneBits int, fp bool) {
	if t.IsVec() {
		e := t.Elem
		if e.IsFP() {
			return t.Len, e.Size() * 8, true
		}
		return t.Len, e.Bits, false
	}
	if t.IsFP() {
		return 1, t.Size() * 8, true
	}
	if t.IsPtr() {
		return 1, 64, false
	}
	return 1, t.Bits, false
}

func (ip *Interp) eval(fr *frame, in *Inst) (RV, error) {
	a := func(i int) (RV, error) { return ip.operand(fr, in.Args[i]) }

	switch in.Op {
	case OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		lanes, lb, _ := elemInfo(in.Ty)
		if lb > 64 { // i128
			switch in.Op {
			case OpAnd:
				return RV{Lo: x.Lo & y.Lo, Hi: x.Hi & y.Hi}, nil
			case OpOr:
				return RV{Lo: x.Lo | y.Lo, Hi: x.Hi | y.Hi}, nil
			case OpXor:
				return RV{Lo: x.Lo ^ y.Lo, Hi: x.Hi ^ y.Hi}, nil
			case OpAdd:
				lo, c := bits.Add64(x.Lo, y.Lo, 0)
				hi, _ := bits.Add64(x.Hi, y.Hi, c)
				return RV{Lo: lo, Hi: hi}, nil
			case OpSub:
				lo, brw := bits.Sub64(x.Lo, y.Lo, 0)
				hi, _ := bits.Sub64(x.Hi, y.Hi, brw)
				return RV{Lo: lo, Hi: hi}, nil
			case OpShl:
				s := y.Lo & 127
				return shl128(x, uint(s)), nil
			case OpLShr:
				s := y.Lo & 127
				return lshr128(x, uint(s)), nil
			}
			return RV{}, fmt.Errorf("i128 op %s unsupported", in.Op)
		}
		var out RV
		for l := 0; l < lanes; l++ {
			xv, yv := getLane(x, lb, l), getLane(y, lb, l)
			if lanes == 1 {
				// Scalars of any width (including i1) use Lo directly.
				xv, yv = x.Lo, y.Lo
			}
			var r uint64
			switch in.Op {
			case OpAdd:
				r = xv + yv
			case OpSub:
				r = xv - yv
			case OpMul:
				r = xv * yv
			case OpUDiv:
				if yv == 0 {
					return RV{}, fmt.Errorf("udiv by zero")
				}
				r = maskBits(xv, lb) / maskBits(yv, lb)
			case OpSDiv:
				if yv == 0 {
					return RV{}, fmt.Errorf("sdiv by zero")
				}
				r = uint64(sext(xv, lb) / sext(yv, lb))
			case OpURem:
				if yv == 0 {
					return RV{}, fmt.Errorf("urem by zero")
				}
				r = maskBits(xv, lb) % maskBits(yv, lb)
			case OpSRem:
				if yv == 0 {
					return RV{}, fmt.Errorf("srem by zero")
				}
				r = uint64(sext(xv, lb) % sext(yv, lb))
			case OpAnd:
				r = xv & yv
			case OpOr:
				r = xv | yv
			case OpXor:
				r = xv ^ yv
			case OpShl:
				r = xv << (yv & uint64(lb-1))
			case OpLShr:
				r = maskBits(xv, lb) >> (yv & uint64(lb-1))
			case OpAShr:
				r = uint64(sext(xv, lb) >> (yv & uint64(lb-1)))
			}
			if lanes == 1 {
				out.Lo = maskBits(r, lb)
			} else {
				setLane(&out, lb, l, maskBits(r, lb))
			}
		}
		return out, nil

	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		lanes, lb, _ := elemInfo(in.Ty)
		var out RV
		for l := 0; l < lanes; l++ {
			xv, yv := fpFromLane(getLane(x, lb, l), lb), fpFromLane(getLane(y, lb, l), lb)
			var r float64
			switch in.Op {
			case OpFAdd:
				r = xv + yv
			case OpFSub:
				r = xv - yv
			case OpFMul:
				r = xv * yv
			case OpFDiv:
				r = xv / yv
			}
			setLane(&out, lb, l, fpToLane(r, lb))
		}
		return out, nil

	case OpSqrt:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		return RVFloat(math.Sqrt(x.F64())), nil
	case OpFMulAdd:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		z, err := a(2)
		if err != nil {
			return RV{}, err
		}
		return RVFloat(x.F64()*y.F64() + z.F64()), nil
	case OpCtpop:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		_, lb, _ := elemInfo(in.Ty)
		return RV{Lo: uint64(bits.OnesCount64(maskBits(x.Lo, lb)))}, nil

	case OpICmp:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		_, lb, _ := elemInfo(in.Args[0].Type())
		if lb == 0 {
			lb = 64 // pointer compare
		}
		var r bool
		xs, ys := sext(x.Lo, lb), sext(y.Lo, lb)
		xu, yu := maskBits(x.Lo, lb), maskBits(y.Lo, lb)
		switch in.Pred {
		case PredEQ:
			r = xu == yu
		case PredNE:
			r = xu != yu
		case PredSLT:
			r = xs < ys
		case PredSLE:
			r = xs <= ys
		case PredSGT:
			r = xs > ys
		case PredSGE:
			r = xs >= ys
		case PredULT:
			r = xu < yu
		case PredULE:
			r = xu <= yu
		case PredUGT:
			r = xu > yu
		case PredUGE:
			r = xu >= yu
		default:
			return RV{}, fmt.Errorf("bad icmp predicate %s", in.Pred)
		}
		return RV{Lo: b2u(r)}, nil

	case OpFCmp:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		_, lb, _ := elemInfo(in.Args[0].Type())
		xf, yf := fpFromLane(getLane(x, lb, 0), lb), fpFromLane(getLane(y, lb, 0), lb)
		var r bool
		switch in.Pred {
		case PredOEQ:
			r = xf == yf
		case PredONE:
			r = xf != yf && !math.IsNaN(xf) && !math.IsNaN(yf)
		case PredOLT:
			r = xf < yf
		case PredOLE:
			r = xf <= yf
		case PredOGT:
			r = xf > yf
		case PredOGE:
			r = xf >= yf
		case PredUNO:
			r = math.IsNaN(xf) || math.IsNaN(yf)
		default:
			return RV{}, fmt.Errorf("bad fcmp predicate %s", in.Pred)
		}
		return RV{Lo: b2u(r)}, nil

	case OpSelect:
		c, err := a(0)
		if err != nil {
			return RV{}, err
		}
		if c.Lo&1 != 0 {
			return a(1)
		}
		return a(2)

	case OpTrunc:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		if in.Args[0].Type().Bits > 64 && in.Ty.Bits <= 64 {
			return RV{Lo: maskBits(x.Lo, in.Ty.Bits)}, nil
		}
		return RV{Lo: maskBits(x.Lo, in.Ty.Bits)}, nil
	case OpZExt:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		return RV{Lo: maskBits(x.Lo, in.Args[0].Type().Bits)}, nil
	case OpSExt:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		v := uint64(sext(x.Lo, in.Args[0].Type().Bits))
		if in.Ty.Bits > 64 {
			hi := uint64(0)
			if int64(v) < 0 {
				hi = ^uint64(0)
			}
			return RV{Lo: v, Hi: hi}, nil
		}
		return RV{Lo: maskBits(v, in.Ty.Bits)}, nil
	case OpFPTrunc:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		return RV{Lo: uint64(math.Float32bits(float32(x.F64())))}, nil
	case OpFPExt:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		return RVFloat(float64(math.Float32frombits(uint32(x.Lo)))), nil
	case OpFPToSI:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		// As x86's cvttsd2si, which the JIT emits: a result narrower than
		// 32 bits is the low bits of the 32-bit conversion.
		_, lb, _ := elemInfo(in.Args[0].Type())
		size := uint8(4)
		if in.Ty.Bits > 32 {
			size = 8
		}
		return RV{Lo: maskBits(emu.TruncF64(fpFromLane(x.Lo, lb), size), in.Ty.Bits)}, nil
	case OpSIToFP:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		v := float64(sext(x.Lo, in.Args[0].Type().Bits))
		_, lb, _ := elemInfo(in.Ty)
		return RV{Lo: fpToLane(v, lb)}, nil
	case OpPtrToInt, OpIntToPtr:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		return RV{Lo: x.Lo}, nil
	case OpBitcast:
		return a(0)

	case OpGEP:
		base, err := a(0)
		if err != nil {
			return RV{}, err
		}
		idx, err := a(1)
		if err != nil {
			return RV{}, err
		}
		ib := in.Args[1].Type().Bits
		return RV{Lo: base.Lo + uint64(sext(idx.Lo, ib))*uint64(in.ElemTy.Size())}, nil

	case OpLoad:
		p, err := a(0)
		if err != nil {
			return RV{}, err
		}
		size := in.Ty.Size()
		switch {
		case size <= 8:
			v, err := ip.Mem.ReadU(p.Lo, size)
			return RV{Lo: v}, err
		case size == 16:
			lo, hi, err := ip.Mem.Read128(p.Lo)
			return RV{Lo: lo, Hi: hi}, err
		}
		return RV{}, fmt.Errorf("load size %d", size)
	case OpStore:
		v, err := a(0)
		if err != nil {
			return RV{}, err
		}
		p, err := a(1)
		if err != nil {
			return RV{}, err
		}
		size := in.Args[0].Type().Size()
		switch {
		case size <= 8:
			return RV{}, ip.Mem.WriteU(p.Lo, size, v.Lo)
		case size == 16:
			return RV{}, ip.Mem.Write128(p.Lo, v.Lo, v.Hi)
		}
		return RV{}, fmt.Errorf("store size %d", size)
	case OpAlloca:
		r := ip.Mem.Alloc(in.ElemTy.Size()*in.NElem, 16, "alloca."+in.Nam)
		return RV{Lo: r.Start}, nil

	case OpExtractElement:
		v, err := a(0)
		if err != nil {
			return RV{}, err
		}
		idx, err := a(1)
		if err != nil {
			return RV{}, err
		}
		_, lb, _ := elemInfo(in.Args[0].Type())
		return RV{Lo: getLane(v, lb, int(idx.Lo))}, nil
	case OpInsertElement:
		v, err := a(0)
		if err != nil {
			return RV{}, err
		}
		el, err := a(1)
		if err != nil {
			return RV{}, err
		}
		idx, err := a(2)
		if err != nil {
			return RV{}, err
		}
		_, lb, _ := elemInfo(in.Args[0].Type())
		out := v
		setLane(&out, lb, int(idx.Lo), el.Lo)
		return out, nil
	case OpShuffleVector:
		x, err := a(0)
		if err != nil {
			return RV{}, err
		}
		y, err := a(1)
		if err != nil {
			return RV{}, err
		}
		srcLen := in.Args[0].Type().Len
		_, lb, _ := elemInfo(in.Args[0].Type())
		var out RV
		for l, sel := range in.Mask {
			if sel < 0 {
				continue
			}
			var v uint64
			if sel < srcLen {
				v = getLane(x, lb, sel)
			} else {
				v = getLane(y, lb, sel-srcLen)
			}
			setLane(&out, lb, l, v)
		}
		return out, nil

	case OpCall:
		args := make([]RV, len(in.Args))
		for i := range in.Args {
			v, err := a(i)
			if err != nil {
				return RV{}, err
			}
			args[i] = v
		}
		return ip.CallFunc(in.Callee, args)
	}
	return RV{}, fmt.Errorf("unsupported op %s", in.Op)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fpFromLane(v uint64, lb int) float64 {
	if lb == 32 {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

func fpToLane(v float64, lb int) uint64 {
	if lb == 32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

func shl128(x RV, s uint) RV {
	switch {
	case s == 0:
		return x
	case s < 64:
		return RV{Lo: x.Lo << s, Hi: x.Hi<<s | x.Lo>>(64-s)}
	case s < 128:
		return RV{Hi: x.Lo << (s - 64)}
	}
	return RV{}
}

func lshr128(x RV, s uint) RV {
	switch {
	case s == 0:
		return x
	case s < 64:
		return RV{Lo: x.Lo>>s | x.Hi<<(64-s), Hi: x.Hi >> s}
	case s < 128:
		return RV{Lo: x.Hi >> (s - 64)}
	}
	return RV{}
}
