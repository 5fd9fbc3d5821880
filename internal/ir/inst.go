package ir

import "fmt"

// Op is an IR instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota
	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Floating-point arithmetic (scalar or vector element-wise).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	// Comparisons.
	OpICmp
	OpFCmp
	OpSelect
	// Casts.
	OpTrunc
	OpZExt
	OpSExt
	OpFPTrunc
	OpFPExt
	OpFPToSI
	OpSIToFP
	OpPtrToInt
	OpIntToPtr
	OpBitcast
	// Memory.
	OpGEP
	OpLoad
	OpStore
	OpAlloca
	// Vectors.
	OpExtractElement
	OpInsertElement
	OpShuffleVector
	// Control and misc.
	OpPhi
	OpCall
	OpRet
	OpBr
	OpCondBr
	OpUnreachable
	// Intrinsics.
	OpCtpop
	OpSqrt
	OpFMulAdd
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpFPTrunc: "fptrunc", OpFPExt: "fpext", OpFPToSI: "fptosi", OpSIToFP: "sitofp",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr", OpBitcast: "bitcast",
	OpGEP: "getelementptr", OpLoad: "load", OpStore: "store", OpAlloca: "alloca",
	OpExtractElement: "extractelement", OpInsertElement: "insertelement",
	OpShuffleVector: "shufflevector",
	OpPhi:           "phi", OpCall: "call", OpRet: "ret", OpBr: "br", OpCondBr: "br",
	OpUnreachable: "unreachable",
	OpCtpop:       "llvm.ctpop", OpSqrt: "llvm.sqrt", OpFMulAdd: "llvm.fmuladd",
}

// String returns the LLVM-like opcode mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Pred is a comparison predicate shared by icmp and fcmp.
type Pred uint8

// Integer predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
	// Floating predicates (ordered forms plus unordered-or-equal set used
	// by ucomisd lowering).
	PredOEQ
	PredONE
	PredOLT
	PredOLE
	PredOGT
	PredOGE
	PredUNO // unordered
)

var predNames = map[Pred]string{
	PredEQ: "eq", PredNE: "ne", PredSLT: "slt", PredSLE: "sle",
	PredSGT: "sgt", PredSGE: "sge", PredULT: "ult", PredULE: "ule",
	PredUGT: "ugt", PredUGE: "uge",
	PredOEQ: "oeq", PredONE: "one", PredOLT: "olt", PredOLE: "ole",
	PredOGT: "ogt", PredOGE: "oge", PredUNO: "uno",
}

// String returns the LLVM predicate name.
func (p Pred) String() string { return predNames[p] }

// Swap returns the predicate with operand order reversed (a P b == b Swap(P) a).
func (p Pred) Swap() Pred {
	switch p {
	case PredSLT:
		return PredSGT
	case PredSGT:
		return PredSLT
	case PredSLE:
		return PredSGE
	case PredSGE:
		return PredSLE
	case PredULT:
		return PredUGT
	case PredUGT:
		return PredULT
	case PredULE:
		return PredUGE
	case PredUGE:
		return PredULE
	case PredOLT:
		return PredOGT
	case PredOGT:
		return PredOLT
	case PredOLE:
		return PredOGE
	case PredOGE:
		return PredOLE
	}
	return p
}

// Negate returns the logical negation of the predicate.
func (p Pred) Negate() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredSLT:
		return PredSGE
	case PredSGE:
		return PredSLT
	case PredSGT:
		return PredSLE
	case PredSLE:
		return PredSGT
	case PredULT:
		return PredUGE
	case PredUGE:
		return PredULT
	case PredUGT:
		return PredULE
	case PredULE:
		return PredUGT
	case PredOEQ:
		return PredONE
	case PredONE:
		return PredOEQ
	}
	return p
}

// Inst is a single SSA instruction. An instruction is itself the Value it
// defines (nil-typed for void instructions such as store and br).
type Inst struct {
	Op   Op
	Ty   *Type // result type (Void for effects-only instructions)
	Args []Value
	Nam  string

	// Pred is the comparison predicate for ICmp/FCmp.
	Pred Pred
	// Incoming holds the predecessor blocks of a phi, parallel to Args.
	Incoming []*Block
	// Mask is the shufflevector selection mask (-1 for undef lanes).
	Mask []int
	// ElemTy is the GEP element type (address step = index * ElemTy.Size())
	// and the Alloca element type.
	ElemTy *Type
	// NElem is the Alloca element count.
	NElem int
	// Callee is the direct call target.
	Callee *Func
	// Blocks holds branch targets: Br -> [dst], CondBr -> [then, else].
	Blocks []*Block
	// FastMath marks FP instructions eligible for reassociation.
	FastMath bool
	// Align is the known alignment (bytes) of a load/store; 0 = unknown.
	Align int
	// Volatile marks loads/stores that must not be reordered or removed
	// (set through the lifter's VolatileRanges API, Section III.E).
	Volatile bool

	// Parent is the containing block (maintained by Block.append).
	Parent *Block
}

// Type implements Value.
func (i *Inst) Type() *Type { return i.Ty }

// Ident implements Value.
func (i *Inst) Ident() string { return "%" + i.Nam }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Inst) IsTerminator() bool {
	switch i.Op {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// Block is a basic block: a label plus an instruction sequence ending in a
// terminator.
type Block struct {
	Nam    string
	Insts  []*Inst
	Parent *Func
}

// Ident returns the label reference form.
func (b *Block) Ident() string { return "%" + b.Nam }

// append adds an instruction to the block.
func (b *Block) append(i *Inst) {
	i.Parent = b
	b.Insts = append(b.Insts, i)
}

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	t := b.Insts[len(b.Insts)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Blocks
}

// Phis returns the leading phi instructions.
func (b *Block) Phis() []*Inst {
	var out []*Inst
	for _, in := range b.Insts {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// Func is an IR function.
type Func struct {
	Nam          string
	Params       []*Param
	RetTy        *Type
	Blocks       []*Block
	AlwaysInline bool
	// Addr records the original machine address when lifted from binary.
	Addr uint64
	// nextID names fresh values and blocks.
	nextID int
	// nextSuffix numbers the names passes derive for values they create
	// (see UniqueSuffix).
	nextSuffix int
}

// NewFunc creates an empty function.
func NewFunc(name string, ret *Type, paramTypes ...*Type) *Func {
	f := &Func{Nam: name, RetTy: ret}
	for i, pt := range paramTypes {
		f.Params = append(f.Params, &Param{Nam: fmt.Sprintf("arg%d", i), Ty: pt, Idx: i})
	}
	return f
}

// Ident implements a Value-like reference for printing call sites.
func (f *Func) Ident() string { return "@" + f.Nam }

// Type returns a pointer-to-function stand-in (functions are not first-class
// here; only direct calls are supported, as in the paper).
func (f *Func) Type() *Type { return PtrTo(Void) }

// NewBlock appends a fresh basic block.
func (f *Func) NewBlock(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("bb%d", f.nextID)
		f.nextID++
	}
	b := &Block{Nam: name, Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// freshName returns a unique value name.
func (f *Func) freshName() string {
	n := fmt.Sprintf("v%d", f.nextID)
	f.nextID++
	return n
}

// UniqueSuffix returns a number f has not handed out before, for passes
// that name the values they create (mem2reg phis, inlined copies). It counts
// apart from the v%d/bb%d numbering, so those names never shift it, and it
// belongs to f, so a function's IR text does not depend on what else the
// process optimized before it.
func (f *Func) UniqueSuffix() int {
	f.nextSuffix++
	return f.nextSuffix
}

// Preds returns the predecessors of each block.
func (f *Func) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// NumInsts counts instructions across all blocks.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Module is a collection of functions and globals.
type Module struct {
	Funcs   []*Func
	Globals []*Global
}

// AddFunc appends a function to the module.
func (m *Module) AddFunc(f *Func) *Func {
	m.Funcs = append(m.Funcs, f)
	return f
}

// AddGlobal appends a global to the module.
func (m *Module) AddGlobal(g *Global) *Global {
	m.Globals = append(m.Globals, g)
	return g
}

// FindFunc returns the function with the given name, or nil.
func (m *Module) FindFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Nam == name {
			return f
		}
	}
	return nil
}
