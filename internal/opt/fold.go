package opt

import (
	"math"
	"math/bits"

	"repro/internal/emu"
	"repro/internal/ir"
)

// constOf extracts an integer constant operand.
func constOf(v ir.Value) (*ir.ConstInt, bool) {
	if z, ok := v.(*ir.Zero); ok && z.Ty.IsInt() {
		return ir.Int(z.Ty, 0), true
	}
	c, ok := v.(*ir.ConstInt)
	return c, ok
}

func fconstOf(v ir.Value) (*ir.ConstFloat, bool) {
	if z, ok := v.(*ir.Zero); ok && z.Ty.IsFP() {
		return ir.FltT(z.Ty, 0), true
	}
	c, ok := v.(*ir.ConstFloat)
	return c, ok
}

func maskW(v uint64, b int) uint64 {
	if b >= 64 {
		return v
	}
	return v & ((1 << uint(b)) - 1)
}

func sextW(v uint64, b int) int64 {
	if b >= 64 {
		return int64(v)
	}
	sh := uint(64 - b)
	return int64(v<<sh) >> sh
}

// foldConst evaluates an instruction whose operands are all constants,
// returning the folded constant or nil.
func foldConst(in *ir.Inst) ir.Value {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		if in.Ty.IsVec() || in.Ty.Bits > 64 {
			return foldWide(in)
		}
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		b, ok := constOf(in.Args[1])
		if !ok {
			return nil
		}
		w := in.Ty.Bits
		av, bv := maskW(a.V, w), maskW(b.V, w)
		var r uint64
		switch in.Op {
		case ir.OpAdd:
			r = av + bv
		case ir.OpSub:
			r = av - bv
		case ir.OpMul:
			r = av * bv
		case ir.OpUDiv:
			if bv == 0 {
				return nil
			}
			r = av / bv
		case ir.OpSDiv:
			if bv == 0 {
				return nil
			}
			r = uint64(sextW(av, w) / sextW(bv, w))
		case ir.OpURem:
			if bv == 0 {
				return nil
			}
			r = av % bv
		case ir.OpSRem:
			if bv == 0 {
				return nil
			}
			r = uint64(sextW(av, w) % sextW(bv, w))
		case ir.OpAnd:
			r = av & bv
		case ir.OpOr:
			r = av | bv
		case ir.OpXor:
			r = av ^ bv
		case ir.OpShl:
			r = av << (bv & uint64(w-1))
		case ir.OpLShr:
			r = av >> (bv & uint64(w-1))
		case ir.OpAShr:
			r = uint64(sextW(av, w) >> (bv & uint64(w-1)))
		}
		return ir.Int(in.Ty, r)

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		if in.Ty.IsVec() {
			return nil
		}
		a, ok := fconstOf(in.Args[0])
		if !ok {
			return nil
		}
		b, ok := fconstOf(in.Args[1])
		if !ok {
			return nil
		}
		var r float64
		switch in.Op {
		case ir.OpFAdd:
			r = a.V + b.V
		case ir.OpFSub:
			r = a.V - b.V
		case ir.OpFMul:
			r = a.V * b.V
		case ir.OpFDiv:
			r = a.V / b.V
		}
		return ir.FltT(in.Ty, r)

	case ir.OpICmp:
		aty := in.Args[0].Type()
		if aty.IsVec() {
			return nil
		}
		w := 64
		if aty.IsInt() && aty.Bits <= 64 {
			w = aty.Bits
		}
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		b, ok := constOf(in.Args[1])
		if !ok {
			return nil
		}
		au, bu := maskW(a.V, w), maskW(b.V, w)
		as, bs := sextW(a.V, w), sextW(b.V, w)
		var r bool
		switch in.Pred {
		case ir.PredEQ:
			r = au == bu
		case ir.PredNE:
			r = au != bu
		case ir.PredSLT:
			r = as < bs
		case ir.PredSLE:
			r = as <= bs
		case ir.PredSGT:
			r = as > bs
		case ir.PredSGE:
			r = as >= bs
		case ir.PredULT:
			r = au < bu
		case ir.PredULE:
			r = au <= bu
		case ir.PredUGT:
			r = au > bu
		case ir.PredUGE:
			r = au >= bu
		default:
			return nil
		}
		return ir.Bool(r)

	case ir.OpFCmp:
		a, ok := fconstOf(in.Args[0])
		if !ok {
			return nil
		}
		b, ok := fconstOf(in.Args[1])
		if !ok {
			return nil
		}
		var r bool
		switch in.Pred {
		case ir.PredOEQ:
			r = a.V == b.V
		case ir.PredONE:
			r = a.V != b.V && !math.IsNaN(a.V) && !math.IsNaN(b.V)
		case ir.PredOLT:
			r = a.V < b.V
		case ir.PredOLE:
			r = a.V <= b.V
		case ir.PredOGT:
			r = a.V > b.V
		case ir.PredOGE:
			r = a.V >= b.V
		case ir.PredUNO:
			r = math.IsNaN(a.V) || math.IsNaN(b.V)
		default:
			return nil
		}
		return ir.Bool(r)

	case ir.OpSelect:
		c, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		if c.V&1 != 0 {
			return in.Args[1]
		}
		return in.Args[2]

	case ir.OpTrunc:
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.Int(in.Ty, maskW(a.V, in.Ty.Bits))
	case ir.OpZExt:
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.Int(in.Ty, maskW(a.V, in.Args[0].Type().Bits))
	case ir.OpSExt:
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.Int(in.Ty, uint64(sextW(a.V, in.Args[0].Type().Bits)))
	case ir.OpPtrToInt, ir.OpIntToPtr:
		// Folded structurally by instcombine (inttoptr(ptrtoint x) etc.).
		return nil
	case ir.OpBitcast:
		if a, ok := constOf(in.Args[0]); ok && in.Ty.IsFP() && !in.Ty.IsVec() {
			if in.Ty.Kind == ir.KDouble {
				return ir.Flt(math.Float64frombits(a.V))
			}
			return ir.FltT(ir.Float, float64(math.Float32frombits(uint32(a.V))))
		}
		if a, ok := fconstOf(in.Args[0]); ok && in.Ty.IsInt() {
			return &ir.ConstInt{Ty: in.Ty, V: a.Bits()}
		}
		if z, ok := in.Args[0].(*ir.Zero); ok {
			_ = z
			return ir.ZeroOf(in.Ty)
		}
		if c, ok := in.Args[0].(*ir.ConstInt); ok && c.V == 0 && c.Hi == 0 {
			return ir.ZeroOf(in.Ty)
		}
		return nil
	case ir.OpSIToFP:
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.FltT(in.Ty, float64(sextW(a.V, in.Args[0].Type().Bits)))
	case ir.OpFPToSI:
		// As x86's cvttsd2si, which the JIT emits (and the IR interpreter
		// follows): a result narrower than 32 bits is the low bits of the
		// 32-bit conversion.
		a, ok := fconstOf(in.Args[0])
		if !ok {
			return nil
		}
		size := uint8(4)
		if in.Ty.Bits > 32 {
			size = 8
		}
		return ir.Int(in.Ty, emu.TruncF64(a.V, size))
	case ir.OpFPExt, ir.OpFPTrunc:
		a, ok := fconstOf(in.Args[0])
		if !ok {
			return nil
		}
		if in.Op == ir.OpFPTrunc {
			return ir.FltT(in.Ty, float64(float32(a.V)))
		}
		return ir.FltT(in.Ty, a.V)
	case ir.OpCtpop:
		a, ok := constOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.Int(in.Ty, uint64(bits.OnesCount64(maskW(a.V, in.Ty.Bits))))
	case ir.OpSqrt:
		a, ok := fconstOf(in.Args[0])
		if !ok {
			return nil
		}
		return ir.FltT(in.Ty, math.Sqrt(a.V))
	case ir.OpGEP:
		// gep of global with constant index is left to addressing-specific
		// passes; gep of constant int pointer folds to inttoptr-style const.
		return nil
	case ir.OpExtractElement:
		idx, ok := constOf(in.Args[1])
		if !ok {
			return nil
		}
		switch v := in.Args[0].(type) {
		case *ir.Zero:
			return zeroScalar(in.Ty)
		case *ir.Undef:
			return ir.UndefOf(in.Ty)
		case *ir.ConstInt: // i128 bit pattern reinterpreted as vector
			if in.Ty.Kind == ir.KDouble {
				if idx.V == 0 {
					return ir.Flt(math.Float64frombits(v.V))
				}
				return ir.Flt(math.Float64frombits(v.Hi))
			}
			if in.Ty.Equal(ir.I64) {
				if idx.V == 0 {
					return ir.Int(ir.I64, v.V)
				}
				return ir.Int(ir.I64, v.Hi)
			}
		}
		return nil
	}
	return nil
}

func zeroScalar(ty *ir.Type) ir.Value {
	if ty.IsFP() {
		return ir.FltT(ty, 0)
	}
	if ty.IsInt() {
		return ir.Int(ty, 0)
	}
	return ir.ZeroOf(ty)
}

// foldWide folds vector and i128 bitwise/arithmetic ops with constant
// operands in the common all-zero / identity cases.
func foldWide(in *ir.Inst) ir.Value {
	isZero := func(v ir.Value) bool {
		if _, ok := v.(*ir.Zero); ok {
			return true
		}
		if c, ok := v.(*ir.ConstInt); ok {
			return c.V == 0 && c.Hi == 0
		}
		return false
	}
	a, b := in.Args[0], in.Args[1]
	switch in.Op {
	case ir.OpXor, ir.OpOr, ir.OpAdd, ir.OpSub:
		if isZero(b) {
			return a
		}
		if isZero(a) && in.Op != ir.OpSub {
			return b
		}
	case ir.OpAnd:
		if isZero(a) || isZero(b) {
			return ir.ZeroOf(in.Ty)
		}
	}
	return nil
}
