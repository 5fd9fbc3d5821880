package lift

import (
	"fmt"
	"sort"

	"repro/internal/emu"
	"repro/internal/x86"
)

// machBlock is one discovered machine basic block.
type machBlock struct {
	start uint64
	insts []x86.Inst
	// fall is the address of the fall-through successor (0 if none).
	fall uint64
	// branch is the direct branch target (0 if none).
	branch uint64
	// dead[k] holds the flags insts[k] writes that no path reads before
	// they are written again (see flagLiveness).
	dead []x86.FlagSet
}

// flagLiveness records in every block the flags each instruction writes
// that are dead after it: a backward fixed point over the fall and branch edges, with
// each instruction's effect taken from x86's flag table. ret reads no flag
// and a call writes all six, so nothing is live across either; a branch out
// of the function, which translate rejects, keeps every flag live.
func flagLiveness(mbs []*machBlock) {
	liveIn := make(map[uint64]x86.FlagSet, len(mbs))
	succ := func(addr uint64) x86.FlagSet {
		if addr == 0 {
			return 0
		}
		if in, ok := liveIn[addr]; ok {
			return in
		}
		return x86.AllFlags
	}
	for _, mb := range mbs {
		liveIn[mb.start] = 0
		mb.dead = make([]x86.FlagSet, len(mb.insts))
	}
	for changed := true; changed; {
		changed = false
		for i := len(mbs) - 1; i >= 0; i-- {
			mb := mbs[i]
			live := succ(mb.fall) | succ(mb.branch)
			for k := len(mb.insts) - 1; k >= 0; k-- {
				read, written := mb.insts[k].FlagEffects()
				mb.dead[k] = written &^ live
				live = live&^written | read
			}
			if live != liveIn[mb.start] {
				liveIn[mb.start] = live
				changed = true
			}
		}
	}
}

// discover decodes the function at entry into basic blocks, implementing
// Section III.B: every instruction belongs to exactly one block, blocks are
// split at jump targets (de-duplication), a block ends at ret/jmp/jcc, and
// calls do not end blocks. Indirect jumps are unsupported, as in the paper.
func discover(mem *emu.Memory, entry uint64, maxInsts int) ([]*machBlock, error) {
	if maxInsts == 0 {
		maxInsts = 100000
	}
	insts := make(map[uint64]x86.Inst)
	leaders := map[uint64]bool{entry: true}
	work := []uint64{entry}
	decoded := 0

	decodeAt := func(addr uint64) (x86.Inst, error) {
		if in, ok := insts[addr]; ok {
			return in, nil
		}
		window := 15
		var code []byte
		for window > 0 {
			b, err := mem.Bytes(addr, window)
			if err == nil {
				code = b
				break
			}
			window--
		}
		if code == nil {
			return x86.Inst{}, fmt.Errorf("lift: code fetch failed at %#x", addr)
		}
		in, err := x86.Decode(code, addr)
		if err != nil {
			return x86.Inst{}, err
		}
		insts[addr] = in
		decoded++
		if decoded > maxInsts {
			return x86.Inst{}, fmt.Errorf("lift: function exceeds %d instructions", maxInsts)
		}
		return in, nil
	}

	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if _, seen := insts[addr]; seen {
				break // already scanned from here
			}
			in, err := decodeAt(addr)
			if err != nil {
				return nil, err
			}
			switch in.Op {
			case x86.RET, x86.UD2:
				// Path ends.
			case x86.JMP:
				t := uint64(in.Dst.Imm)
				if !leaders[t] {
					leaders[t] = true
					work = append(work, t)
				}
			case x86.JCC:
				t := uint64(in.Dst.Imm)
				if !leaders[t] {
					leaders[t] = true
					work = append(work, t)
				}
				fall := addr + uint64(in.Len)
				if !leaders[fall] {
					leaders[fall] = true
					work = append(work, fall)
				}
			case x86.JMPIndirect:
				return nil, fmt.Errorf("lift: indirect jump at %#x is not supported", addr)
			default:
				addr += uint64(in.Len)
				continue
			}
			break
		}
	}

	// Validate that every leader is an instruction start.
	for l := range leaders {
		if _, ok := insts[l]; !ok {
			return nil, fmt.Errorf("lift: branch target %#x is not an instruction boundary", l)
		}
	}

	// Assemble blocks: sorted instruction addresses, cut at leaders and
	// terminators.
	addrs := make([]uint64, 0, len(insts))
	for a := range insts {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var blocks []*machBlock
	var cur *machBlock
	flush := func() {
		if cur != nil && len(cur.insts) > 0 {
			blocks = append(blocks, cur)
		}
		cur = nil
	}
	for i, a := range addrs {
		in := insts[a]
		if leaders[a] || cur == nil {
			flush()
			cur = &machBlock{start: a}
		}
		// Detect gaps: linear scan may include instructions from disjoint
		// ranges; a gap forces a new block without fall-through.
		cur.insts = append(cur.insts, in)
		end := a + uint64(in.Len)
		switch in.Op {
		case x86.RET, x86.UD2:
			flush()
		case x86.JMP:
			cur.branch = uint64(in.Dst.Imm)
			flush()
		case x86.JCC:
			cur.branch = uint64(in.Dst.Imm)
			cur.fall = end
			flush()
		default:
			// Split before the next leader (fall-through edge).
			if i+1 < len(addrs) && leaders[addrs[i+1]] && addrs[i+1] == end {
				cur.fall = end
				flush()
			} else if i+1 < len(addrs) && addrs[i+1] != end {
				return nil, fmt.Errorf("lift: control falls off decoded range at %#x", end)
			} else if i+1 == len(addrs) {
				return nil, fmt.Errorf("lift: function at %#x does not end with ret/jmp", entry)
			}
		}
	}
	flush()
	return blocks, nil
}
