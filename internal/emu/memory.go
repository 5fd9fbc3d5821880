// Package emu executes x86-64 machine code produced by the kernels corpus,
// by DBrew, and by the JIT backend. It provides the "hardware" substitute
// for this reproduction: a user-mode interpreter over a flat virtual address
// space plus a Haswell-like cost model that accounts cycles per executed
// instruction.
//
// Every evaluated code variant (native, DBrew-rewritten, JIT-compiled) runs
// on the same machine model, so relative performance is determined purely by
// the generated code — mirroring how the paper compares variants on one CPU.
package emu

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Fault describes an invalid memory access.
type Fault struct {
	Addr uint64
	Size int
	Op   string
}

// Error formats the fault.
func (f *Fault) Error() string {
	return fmt.Sprintf("emu: %s fault at %#x (size %d)", f.Op, f.Addr, f.Size)
}

// Region is a contiguous mapped range of the virtual address space.
type Region struct {
	Start uint64
	Data  []byte
	Name  string

	// watch is set once a machine has translated code from this region.
	// Writes to a watched region bump the owning Memory's code generation,
	// which lazily invalidates every machine's translated blocks.
	watch atomic.Bool
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + uint64(len(r.Data)) }

// Watched reports whether writes to the region currently bump the code
// generation. The trace tier uses it to deoptimize stores that may hit
// translated code.
func (r *Region) Watched() bool { return r.watch.Load() }

// WatchWord exposes the address of the watch flag's storage word so
// natively compiled traces can poll it with a plain aligned load (the
// atomic.Bool value word sits at offset 0; non-zero means watched).
// Regions are never unmapped, so the pointer stays valid for the region's
// lifetime. Callers must only read through it.
func (r *Region) WatchWord() *uint32 { return (*uint32)(unsafe.Pointer(&r.watch)) }

// Memory is a sparse virtual address space composed of mapped regions.
// Lookups cache the last region hit, which makes the common
// one-region-dominates workloads fast.
//
// The region *set* is copy-on-write: Map/Alloc insert into a new sorted
// slice under a mutex and publish it atomically, and lookups read the
// published slice without locking. This keeps the emulator's
// per-instruction lookup path lock-free while compiles allocate code pages
// in parallel with one another and with the hashing of fixed memory ranges
// (for specialization cache keys). Region contents are not synchronized;
// the engine keeps concurrent accessors apart instead: a compile writes only
// into regions it allocated itself, and it hands out their addresses only
// after it has written them, so everyone else reads finished data.
type Memory struct {
	mapMu   sync.Mutex                // serializes Map/Alloc and guards brk
	regions atomic.Pointer[[]*Region] // sorted by Start; slice is immutable once published
	last    atomic.Pointer[Region]    // MRU lookup cache
	brk     uint64                    // next free address for Alloc

	// codeGen counts invalidation events: it is bumped by every write into
	// a watched (code-bearing) region and by InvalidateRange. Machines
	// compare it against the generation their translated blocks were built
	// under and retranslate on mismatch.
	codeGen atomic.Uint64

	// stack is the shared machine stack, created on first use. Machines
	// on one Memory run sequentially, so one stack region suffices; a
	// per-call allocation would grow the address space without bound in
	// measurement loops.
	stack *Region
}

// NewMemory returns an empty address space whose allocator starts at base.
func NewMemory(base uint64) *Memory { return &Memory{brk: base} }

func (m *Memory) loadRegions() []*Region {
	if p := m.regions.Load(); p != nil {
		return *p
	}
	return nil
}

// Map adds a region at a fixed address. Overlapping an existing region is an
// error.
func (m *Memory) Map(start uint64, size int, name string) (*Region, error) {
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	return m.mapLocked(start, size, name)
}

func (m *Memory) mapLocked(start uint64, size int, name string) (*Region, error) {
	r := &Region{Start: start, Data: make([]byte, size), Name: name}
	old := m.loadRegions()
	// r goes after every region starting below it and, unless r is empty,
	// after those starting at its address: an empty region sorts before a
	// region starting where it does, so End never decreases along the slice
	// and find and noteCode can binary-search on it. Only r's neighbours can
	// overlap it: the first region to its right, and the regions to its left
	// back to the first non-empty one that starts below it (the set is
	// disjoint, so nothing further left reaches r).
	i := sort.Search(len(old), func(i int) bool {
		return old[i].Start > r.Start || (size == 0 && old[i].Start == r.Start)
	})
	overlap := func(o *Region) error {
		if r.Start < o.End() && o.Start < r.End() {
			return fmt.Errorf("emu: mapping %q [%#x,%#x) overlaps %q", name, r.Start, r.End(), o.Name)
		}
		return nil
	}
	if i < len(old) {
		if err := overlap(old[i]); err != nil {
			return nil, err
		}
	}
	for j := i - 1; j >= 0; j-- {
		if err := overlap(old[j]); err != nil {
			return nil, err
		}
		if old[j].Start < r.Start && len(old[j].Data) > 0 {
			break
		}
	}
	next := make([]*Region, len(old)+1)
	copy(next, old[:i])
	next[i] = r
	copy(next[i+1:], old[i:])
	m.regions.Store(&next)
	if r.End() > m.brk {
		m.brk = r.End()
	}
	return r, nil
}

// Alloc maps a fresh region of the given size and alignment at the next free
// address and returns it.
func (m *Memory) Alloc(size int, align uint64, name string) *Region {
	if align == 0 {
		align = 16
	}
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	start := (m.brk + align - 1) &^ (align - 1)
	r, err := m.mapLocked(start, size, name)
	if err != nil {
		panic("emu: allocator collision: " + err.Error()) // cannot happen: brk is past all regions
	}
	m.brk = start + uint64(size) + 64 // red zone between allocations
	return r
}

// MapBytes maps data at a fixed address.
func (m *Memory) MapBytes(start uint64, data []byte, name string) (*Region, error) {
	r, err := m.Map(start, len(data), name)
	if err != nil {
		return nil, err
	}
	copy(r.Data, data)
	return r, nil
}

// find locates the region containing [addr, addr+size).
func (m *Memory) find(addr uint64, size int) *Region {
	if r := m.last.Load(); r != nil && addr >= r.Start && addr+uint64(size) <= r.End() {
		return r
	}
	regions := m.loadRegions()
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > addr })
	if i < len(regions) {
		r := regions[i]
		if addr >= r.Start && addr+uint64(size) <= r.End() {
			m.last.Store(r)
			return r
		}
	}
	return nil
}

// FindRegion returns the region containing [addr, addr+size), or nil. It is
// the exported lookup the trace tier's memory intrinsics use; regions are
// immutable and never unmapped, so the caller may cache the pointer.
func (m *Memory) FindRegion(addr uint64, size int) *Region { return m.find(addr, size) }

// Bytes returns a mutable view of [addr, addr+size).
func (m *Memory) Bytes(addr uint64, size int) ([]byte, error) {
	r := m.find(addr, size)
	if r == nil {
		return nil, &Fault{Addr: addr, Size: size, Op: "access"}
	}
	off := addr - r.Start
	return r.Data[off : off+uint64(size)], nil
}

// Tail returns a view of up to max bytes starting at addr, clamped to the
// end of the containing region. Instruction fetch uses it to learn the
// available decode window in one lookup instead of probing ever-shorter
// spans near a region tail.
func (m *Memory) Tail(addr uint64, max int) ([]byte, error) {
	r := m.find(addr, 1)
	if r == nil {
		return nil, &Fault{Addr: addr, Size: 1, Op: "access"}
	}
	off := addr - r.Start
	n := uint64(len(r.Data)) - off
	if n > uint64(max) {
		n = uint64(max)
	}
	return r.Data[off : off+n], nil
}

// noteCode marks every region overlapping [start, end) as code-bearing, so
// subsequent writes into it bump the code generation. Called by machines
// when they translate a block. It visits only the overlapping regions: the
// first one ending past start, as find locates it, up to the first one
// starting at or past end.
func (m *Memory) noteCode(start, end uint64) {
	regions := m.loadRegions()
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > start })
	for ; i < len(regions) && regions[i].Start < end; i++ {
		regions[i].watch.Store(true)
	}
}

// CodeGen returns the current code generation. It changes whenever mapped
// code may have been modified: translated blocks built under an older
// generation must be discarded.
func (m *Memory) CodeGen() uint64 { return m.codeGen.Load() }

// CodeGenWord exposes the address of the code-generation counter's storage
// word so natively compiled traces can re-check it on every backedge with a
// plain aligned 64-bit load (the atomic.Uint64 value word sits at offset 0).
// Memory outlives every machine executing against it, so the pointer stays
// valid. Callers must only read through it.
func (m *Memory) CodeGenWord() *uint64 { return (*uint64)(unsafe.Pointer(&m.codeGen)) }

// InvalidateRange declares that bytes in [start, end) were modified outside
// the tracked write paths (e.g. through a slice returned by Bytes). Every
// machine's translated blocks and decoded instructions are lazily discarded
// on their next dispatch.
func (m *Memory) InvalidateRange(start, end uint64) {
	_ = start
	_ = end
	m.codeGen.Add(1)
}

// Read copies size bytes from addr.
func (m *Memory) Read(addr uint64, size int) ([]byte, error) {
	b, err := m.Bytes(addr, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, b)
	return out, nil
}

// ReadU reads a little-endian unsigned integer of 1, 2, 4, or 8 bytes.
func (m *Memory) ReadU(addr uint64, size int) (uint64, error) {
	b, err := m.Bytes(addr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	return 0, fmt.Errorf("emu: bad read size %d", size)
}

// WriteU writes a little-endian unsigned integer of 1, 2, 4, or 8 bytes.
func (m *Memory) WriteU(addr uint64, size int, v uint64) error {
	r := m.find(addr, size)
	if r == nil {
		return &Fault{Addr: addr, Size: size, Op: "write"}
	}
	if r.watch.Load() {
		m.codeGen.Add(1)
	}
	off := addr - r.Start
	b := r.Data[off : off+uint64(size)]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		return fmt.Errorf("emu: bad write size %d", size)
	}
	return nil
}

// Read128 reads a 16-byte value as two little-endian 64-bit lanes.
func (m *Memory) Read128(addr uint64) (lo, hi uint64, err error) {
	b, err := m.Bytes(addr, 16)
	if err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), nil
}

// Write128 writes a 16-byte value from two 64-bit lanes.
func (m *Memory) Write128(addr uint64, lo, hi uint64) error {
	r := m.find(addr, 16)
	if r == nil {
		return &Fault{Addr: addr, Size: 16, Op: "write"}
	}
	if r.watch.Load() {
		m.codeGen.Add(1)
	}
	off := addr - r.Start
	b := r.Data[off : off+16]
	binary.LittleEndian.PutUint64(b, lo)
	binary.LittleEndian.PutUint64(b[8:], hi)
	return nil
}

// WriteFloat64 stores a float64 at addr.
func (m *Memory) WriteFloat64(addr uint64, v float64) error {
	return m.WriteU(addr, 8, f64bits(v))
}

// ReadFloat64 loads a float64 from addr.
func (m *Memory) ReadFloat64(addr uint64) (float64, error) {
	u, err := m.ReadU(addr, 8)
	return f64frombits(u), err
}

// Regions returns the mapped regions in address order.
func (m *Memory) Regions() []*Region { return m.loadRegions() }
