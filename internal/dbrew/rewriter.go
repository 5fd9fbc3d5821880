package dbrew

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/trace"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// ErrBufferTooSmall is reported when the generated code exceeds the
// configured buffer; a custom error handler may enlarge the buffer and
// restart, as suggested in Section II.
var ErrBufferTooSmall = errors.New("dbrew: generated code exceeds the configured buffer size")

// ErrUnsupported wraps rewriting failures on instructions outside the
// supported subset.
var ErrUnsupported = errors.New("dbrew: unsupported instruction")

// Config mirrors the dbrew rewriter configuration options: fixed parameters,
// fixed memory ranges, inlining depth, and resource limits.
type Config struct {
	// BufferSize caps the emitted code size in bytes (0: 1<<16).
	BufferSize int
	// MaxInsts caps processed instructions, bounding unrolling (0: 200000).
	MaxInsts int
	// InlineDepth is the maximum depth of inlined direct calls (0: 8).
	InlineDepth int
}

// Rewriter is the dbrew_rewriter object (Figure 2): it is configured and
// then asked to rewrite one function.
type Rewriter struct {
	mem   *emu.Memory
	entry uint64
	sig   abi.Signature
	cfg   Config

	knownParams map[int]uint64
	ranges      []Range

	// ErrorHandler decides the result on failure; the default returns the
	// original function. It may return a replacement address and true to
	// retry (e.g. after enlarging the buffer).
	ErrorHandler func(err error) (retry bool)

	// Trace, when non-nil, receives one "rewrite" span per Rewrite call
	// with decoded/emitted instruction counts and the emitted code size.
	// A nil Trace records nothing.
	Trace *trace.Trace

	// Stats of the last Rewrite call.
	Stats Stats
}

// Stats describes what rewriting did.
type Stats struct {
	Decoded    int
	Emitted    int
	Eliminated int
	Inlined    int
	CodeSize   int
	Failed     bool
	Err        error
}

// NewRewriter creates a rewriter for the function at entry, following the
// platform ABI described by sig (DBrew relies on the C ABI to map parameter
// numbers to registers, Section II).
func NewRewriter(mem *emu.Memory, entry uint64, sig abi.Signature) *Rewriter {
	return &Rewriter{
		mem:         mem,
		entry:       entry,
		sig:         sig,
		knownParams: make(map[int]uint64),
	}
}

// SetPar fixes parameter idx to a known value (dbrew_setpar).
func (r *Rewriter) SetPar(idx int, value uint64) { r.knownParams[idx] = value }

// SetParPtr fixes parameter idx to a known pointer whose pointed-to region
// [addr, addr+size) holds fixed values. Per the paper, this applies
// recursively for pointers inside the region as long as their targets also
// lie in a fixed range.
func (r *Rewriter) SetParPtr(idx int, addr uint64, size int) {
	r.knownParams[idx] = addr
	r.SetMem(addr, addr+uint64(size))
}

// SetMem declares [start, end) to hold fixed values (dbrew_setmem).
func (r *Rewriter) SetMem(start, end uint64) {
	r.ranges = append(r.ranges, Range{Start: start, End: end})
}

// SetConfig replaces resource limits.
func (r *Rewriter) SetConfig(cfg Config) { r.cfg = cfg }

// Ranges returns the configured fixed memory ranges (used by the LLVM
// backend integration of Section IV).
func (r *Rewriter) Ranges() []Range { return r.ranges }

// ParamFix is one fixed parameter as configured by SetPar/SetParPtr.
type ParamFix struct {
	Idx   int
	Value uint64
}

// KnownParams returns the fixed parameters sorted by index — a canonical
// form suitable for building specialization cache keys.
func (r *Rewriter) KnownParams() []ParamFix {
	out := make([]ParamFix, 0, len(r.knownParams))
	for idx, v := range r.knownParams {
		out = append(out, ParamFix{Idx: idx, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return out
}

// Config returns the configured resource limits.
func (r *Rewriter) Config() Config { return r.cfg }

// Rewrite produces the specialized function and returns its entry address.
// On failure the error handler runs; the default returns the original
// function address with a nil error, so callers always get runnable code.
func (r *Rewriter) Rewrite() (uint64, error) {
	sp := r.Trace.Start("rewrite")
	defer func() {
		sp = sp.Int("insts_in", int64(r.Stats.Decoded)).
			Int("insts_out", int64(r.Stats.Emitted)).
			Int("code_bytes", int64(r.Stats.CodeSize))
		if r.Stats.Failed {
			sp.Outcome("fallback: " + r.Stats.Err.Error())
		}
		sp.End()
	}()
	for attempt := 0; ; attempt++ {
		addr, err := r.rewriteOnce()
		if err == nil {
			return addr, nil
		}
		r.Stats.Failed = true
		r.Stats.Err = err
		if r.ErrorHandler != nil && attempt < 8 && r.ErrorHandler(err) {
			continue
		}
		// Default error handling: fall back to the original function.
		return r.entry, nil
	}
}

func (r *Rewriter) rewriteOnce() (uint64, error) {
	r.Stats = Stats{}
	bufSize := r.cfg.BufferSize
	if bufSize == 0 {
		bufSize = 1 << 16
	}
	e := &emitterState{
		rw:      r,
		b:       asm.NewBuilder(),
		visited: make(map[visitKey]asm.Label),
	}
	st := newMState()
	for idx, v := range r.knownParams {
		if idx >= len(r.sig.Params) {
			return 0, fmt.Errorf("dbrew: parameter %d out of range", idx)
		}
		locs := r.sig.Locations()
		if locs[idx].IsFP {
			return 0, fmt.Errorf("%w: fixing FP parameters", ErrUnsupported)
		}
		st.setKnown(locs[idx].Reg, v)
	}
	start := e.b.NewLabel()
	e.queue = append(e.queue, workItem{addr: r.entry, st: st, label: start})
	for len(e.queue) > 0 {
		item := e.queue[0]
		e.queue = e.queue[1:]
		if err := e.processPath(item); err != nil {
			return 0, err
		}
	}
	// Encode once to learn the size, then place straight into the buffer.
	size, err := e.b.Layout(0x1000000)
	if err != nil {
		return 0, fmt.Errorf("dbrew: assembly failed: %w", err)
	}
	if size > bufSize {
		return 0, fmt.Errorf("%w (%d > %d)", ErrBufferTooSmall, size, bufSize)
	}
	region := r.mem.Alloc(size, 16, "dbrew.code")
	if err := e.b.Place(region.Data, region.Start); err != nil {
		return 0, err
	}
	r.Stats.CodeSize = size
	return region.Start, nil
}

// Listing disassembles the most recently generated code (for inspection,
// e.g. the Figure 8 comparison). It returns one line per instruction.
func Listing(mem *emu.Memory, entry uint64, size int) ([]string, error) {
	var out []string
	addr := entry
	end := entry + uint64(size)
	for addr < end {
		window := 15
		if int(end-addr) < window {
			window = int(end - addr)
		}
		code, err := mem.Bytes(addr, window)
		for err != nil && window > 0 {
			window--
			code, err = mem.Bytes(addr, window)
		}
		if err != nil {
			return nil, err
		}
		in, err := x86.Decode(code, addr)
		if err != nil {
			return nil, err
		}
		out = append(out, in.String())
		addr += uint64(in.Len)
	}
	return out, nil
}
