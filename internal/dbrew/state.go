// Package dbrew reimplements the DBrew dynamic binary rewriter of Section
// II: lightweight code generation by re-combining and specializing pieces of
// compiled binary code. A Rewriter produces a drop-in replacement for an
// existing function; parameters and memory ranges can be declared fixed, and
// the rewriting performs constant propagation, dead-code elimination (known
// instructions "simply disappear"), full loop unrolling under runtime-known
// trip counts, and aggressive inlining of direct calls.
//
// Rewriting may fail on unsupported instructions; the default error handler
// returns the original function to preserve correctness, as in the paper.
package dbrew

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/emu"
	"repro/internal/x86"
)

// regVal is the meta-state of one general purpose register during rewriting:
// either dynamic (holds a runtime value) or known (holds a rewrite-time
// constant). A known register may additionally be "materialized", meaning
// the emitted code has already loaded the constant into the physical
// register.
type regVal struct {
	known bool
	mat   bool
	val   uint64
}

// flagsVal models the six status flags with per-flag precision: a flag is
// known (its value is in f), valid (the runtime flags register holds the
// architecturally correct value), or poisoned (neither — its defining
// instruction was eliminated). Consuming a poisoned flag aborts rewriting —
// the default handler then returns the original code.
type flagsVal struct {
	known x86.FlagSet // flags with known values
	valid x86.FlagSet // flags valid in the runtime flags register
	f     x86.FlagSet // values of the known flags; other bits are stale
}

// fold records the flags after an instruction evaluated away: the flags it
// defined are known with out's values, the others it writes are poisoned,
// and the rest keep their state.
func (fl *flagsVal) fold(out emu.Flags, defined, written x86.FlagSet) {
	fl.known = fl.known&^written | defined
	fl.valid &^= written
	fl.f = fl.f&^written | out.Set()&defined
}

// Range is a half-open memory interval whose contents are fixed.
type Range struct {
	Start, End uint64
}

// Contains reports whether [addr, addr+n) is inside the range.
func (r Range) Contains(addr uint64, n int) bool {
	return addr >= r.Start && addr+uint64(n) <= r.End
}

// mstate is the abstract machine state carried along each rewriting path.
// Vector registers are always dynamic (DBrew performs no FP specialization,
// which is exactly the overhead Figure 8 shows).
type mstate struct {
	gpr      [16]regVal
	flags    flagsVal
	retStack []uint64
	// vstack models push/pop pairs so that a known register survives being
	// saved and restored (e.g. callee-saved registers around an inlined
	// call). Any other RSP manipulation invalidates it.
	vstack   []regVal
	vstackOK bool
}

func newMState() *mstate {
	s := &mstate{}
	s.flags.valid = x86.AllFlags // runtime flags are live (unknown) on entry
	s.vstackOK = true
	return s
}

func (s *mstate) clone() *mstate {
	n := *s
	n.retStack = append([]uint64(nil), s.retStack...)
	n.vstack = append([]regVal(nil), s.vstack...)
	return &n
}

// invalidateVStack drops push/pop tracking (after untracked RSP changes).
func (s *mstate) invalidateVStack() {
	s.vstack = nil
	s.vstackOK = false
}

// setKnown marks a register known with the given value (not materialized).
func (s *mstate) setKnown(r x86.Reg, v uint64) {
	s.gpr[r] = regVal{known: true, val: v}
}

// setDynamic marks a register as holding a runtime value.
func (s *mstate) setDynamic(r x86.Reg) {
	s.gpr[r] = regVal{}
}

// killFlags makes the flag state fully dynamic (runtime-valid but unknown).
func (s *mstate) killFlags() { s.flags = flagsVal{valid: x86.AllFlags} }

// hash produces a key identifying the abstract state, used to detect when a
// code path re-enters an already-emitted (address, state) pair — this both
// terminates loops with dynamic conditions and bounds unrolling.
func (s *mstate) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range s.gpr {
		if r.known {
			put(uint64(i)<<1 | 1)
			put(r.val)
			if r.mat {
				put(0xBADC0DE)
			}
		}
	}
	bits := uint64(s.flags.f)<<16 | uint64(s.flags.known)<<8 | uint64(s.flags.valid)
	put(0xF1A6<<32 | bits)
	for _, ra := range s.retStack {
		put(ra)
	}
	if s.vstackOK {
		put(0x57AC)
		for _, rv := range s.vstack {
			if rv.known {
				put(rv.val<<1 | 1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum64()
}
