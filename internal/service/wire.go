// Package service implements dbrewd, the specialization-as-a-service
// daemon: an HTTP front-end over the Engine/Rewriter pipeline that accepts
// raw x86-64 machine code plus a specialization configuration and returns
// the optimized machine code, its IR, and compile statistics.
//
// A request is a self-contained snapshot of the client's relevant address
// space: every region (code and fixed data) is shipped with its absolute
// address and reconstructed verbatim inside the daemon's engine, so the
// returned code is byte-identical to what an in-process Rewrite would have
// produced over the same image. Identical regions re-uploaded by later
// requests are recognized by content and reused; conflicting contents at
// the same address are rejected with 409 rather than silently respecialized
// over different data.
//
// The daemon's operational behavior — bounded worker pool with admission
// control, request coalescing through the engine's specialization-cache
// singleflight, per-request deadlines, graceful shutdown, and the
// /healthz + /metrics endpoints — is described in DESIGN.md ("dbrewd").
package service

import (
	"encoding/json"
	"fmt"

	dbrewllvm "repro"
	"repro/internal/abi"
	"repro/internal/cluster"
	"repro/internal/emu"
	"repro/internal/tier"
)

// Region is one mapped range of the client's address space, placed at its
// absolute address inside the daemon's engine. Data is base64 in JSON.
//
// A region travels in exactly one of two forms: plain (Data holds the
// bytes) or delta (Chunks lists the region's content-defined chunks in
// order, each payload optional). The server reconstructs delta regions from
// its chunk store and answers 412 with ErrorBody.Missing when payloads it
// has never seen are omitted — see Client.EnableDeltaSnapshots.
type Region struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
	// Chunks is the delta form: the region's chunk sequence. Mutually
	// exclusive with Data.
	Chunks []Chunk `json:"chunks,omitempty"`

	// hashes is the chunk-hash list of a delta region the server assembled
	// from its chunk store, kept for ensureRegions to record; it never
	// travels.
	hashes []string
}

// Chunk is one content-defined chunk of a delta-form region. Hash is the
// chunk identity (truncated SHA-256, hex); Data is the payload, omitted
// when the client believes the server's chunk store already holds it.
type Chunk struct {
	Hash string `json:"hash"`
	Data []byte `json:"data,omitempty"`
}

// SigSpec is the wire form of a function signature. Classes are "int",
// "ptr", "f64"; the return class may also be "none" (or empty) for void.
type SigSpec struct {
	Ret    string   `json:"ret,omitempty"`
	Params []string `json:"params"`
}

// ParamFix fixes one parameter. With Ptr false it is dbrew_setpar(idx,
// value); with Ptr true it is dbrew_setpar_ptr: Value is a pointer whose
// target region [Value, Value+Size) holds fixed contents.
type ParamFix struct {
	Idx   int    `json:"idx"`
	Value uint64 `json:"value"`
	Ptr   bool   `json:"ptr,omitempty"`
	Size  int    `json:"size,omitempty"`
}

// MemRange declares [Start, End) as fixed memory (dbrew_setmem).
type MemRange struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Limits forwards the DBrew resource limits; zero fields keep defaults.
type Limits struct {
	BufferSize  int `json:"buffer_size,omitempty"`
	MaxInsts    int `json:"max_insts,omitempty"`
	InlineDepth int `json:"inline_depth,omitempty"`
}

// Request is one specialization request (POST /specialize).
type Request struct {
	// Regions is the address-space snapshot: machine code and any data the
	// specialization reads (fixed parameter targets, constant pools).
	Regions []Region `json:"regions"`
	// Entry is the function's entry address within the snapshot.
	Entry uint64 `json:"entry"`
	// Sig is the function signature at Entry.
	Sig SigSpec `json:"sig"`
	// Backend selects the code generator: "llvm" (default; the paper's
	// lift → optimize → JIT pipeline) or "dbrew" (binary encoder only).
	Backend string `json:"backend,omitempty"`
	// NoFastMath disables the -ffast-math analog (default: enabled, as in
	// the paper's evaluation).
	NoFastMath bool `json:"no_fast_math,omitempty"`
	// ForceVectorWidth forces loop vectorization (Section VI-B; only 2).
	ForceVectorWidth int `json:"force_vector_width,omitempty"`
	// FixedParams are the known parameters (dbrew_setpar/_setpar_ptr).
	FixedParams []ParamFix `json:"fixed_params,omitempty"`
	// FixedRanges are extra fixed memory ranges (dbrew_setmem).
	FixedRanges []MemRange `json:"fixed_ranges,omitempty"`
	// Limits overrides the DBrew resource limits.
	Limits *Limits `json:"limits,omitempty"`
	// DeadlineMS bounds this request's total latency in milliseconds; the
	// server clamps it to its configured maximum. 0 selects the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IncludeIR asks for the formatted IR of the returned code.
	IncludeIR bool `json:"include_ir,omitempty"`
}

// CompileStats is the wire form of the rewrite statistics.
type CompileStats struct {
	Decoded    int  `json:"decoded"`
	Emitted    int  `json:"emitted"`
	Eliminated int  `json:"eliminated"`
	Inlined    int  `json:"inlined"`
	CodeSize   int  `json:"code_size"`
	Failed     bool `json:"failed,omitempty"`
}

// Response is a successful specialization result.
type Response struct {
	// Addr is the address the generated code lives at inside the daemon's
	// engine (informational; the bytes are position-independent).
	Addr uint64 `json:"addr"`
	// Code is the optimized machine code (base64 in JSON).
	Code []byte `json:"code"`
	// CacheHit reports that the result was served from the specialization
	// cache — including joining another request's in-flight compilation —
	// rather than compiled for this request.
	CacheHit bool `json:"cache_hit"`
	// Source names the level that produced the code: "memory" (in-memory
	// cache or in-flight join), "disk" (persisted artifact), "peer" (owner's
	// artifact adopted), "forward" (request compiled by the owning peer), or
	// "compile" (this node ran the pipeline).
	Source string `json:"source,omitempty"`
	// Key is the specialization's cache key (hex), the {key} that
	// GET /artifact/{key} and DELETE /artifact/{key} address.
	Key string `json:"key,omitempty"`
	// Strategy names the compile strategy the server chose for this
	// request: "full" (the requested backend) or "fastpath" (the DBrew
	// backend alone, whatever the request asked for — selected
	// automatically when the remaining deadline budget fell below the
	// server's configured threshold).
	Strategy string `json:"strategy,omitempty"`
	// Stats are the compile statistics (restored from cache on a hit).
	Stats CompileStats `json:"stats"`
	// IR is the formatted IR of the returned code, when IncludeIR was set
	// and the result lifted cleanly.
	IR string `json:"ir,omitempty"`
	// ElapsedUS is the server-side handling time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Trace is the per-request pipeline trace (admission, cache, rewrite,
	// decode, lift, optimize, jit spans), present when the request carried
	// ?trace=1.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Stage identifies the failing pipeline stage ("rewrite", "lift",
	// "optimize", "jit") when the failure came from the compile pipeline.
	Stage string `json:"stage,omitempty"`
	// Missing accompanies 412: the chunk hashes a delta-form request
	// referenced that the server's chunk store does not hold. Retry the
	// request once with those payloads included.
	Missing []string `json:"missing,omitempty"`
}

// Metrics is the GET /metrics payload.
type Metrics struct {
	// Requests counts specialization requests accepted for processing.
	Requests int64 `json:"requests"`
	// OK counts 2xx specialization responses.
	OK int64 `json:"ok"`
	// BadRequests counts 4xx other than 429 (malformed, conflicting, or
	// unspecializable inputs).
	BadRequests int64 `json:"bad_requests"`
	// RejectedOverload counts 429 responses (admission queue full).
	RejectedOverload int64 `json:"rejected_overload"`
	// DeadlineExceeded counts 504 responses (deadline passed while queued
	// for a compile slot or coalesced onto another request's compile).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Errors counts 5xx responses other than 504.
	Errors int64 `json:"errors"`
	// CacheHits counts responses served from the specialization cache,
	// including coalesced joins of in-flight compiles.
	CacheHits int64 `json:"cache_hits"`
	// CoalesceHits counts requests that blocked on another request's
	// in-flight identical compilation (the engine cache's Waits counter).
	CoalesceHits int64 `json:"coalesce_hits"`
	// FastpathServed counts 200s answered under the fastpath strategy
	// (deadline budget below the server's threshold); FullServed the rest.
	FastpathServed int64 `json:"fastpath_served"`
	FullServed     int64 `json:"full_served"`
	// QueueDepth is the current number of requests queued for a compile
	// slot; ActiveCompiles the number of slots in use.
	QueueDepth     int64 `json:"queue_depth"`
	ActiveCompiles int64 `json:"active_compiles"`
	// PeerHits counts requests served by adopting the owning peer's
	// artifact; PeerForwards requests relayed to their owner for
	// compilation; PeerDegraded fleet paths that fell back to a local
	// compile; ForwardServed forwarded requests this node answered as owner.
	PeerHits      int64 `json:"peer_hits,omitempty"`
	PeerForwards  int64 `json:"peer_forwards,omitempty"`
	PeerDegraded  int64 `json:"peer_degraded,omitempty"`
	ForwardServed int64 `json:"forward_served,omitempty"`
	// Cluster is the peer-traffic counter snapshot; nil outside fleet mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// DeltaRequests counts requests that arrived in delta (chunked) form;
	// DeltaMisses the 412 missing-chunk replies; DeltaBytesSaved the region
	// bytes reconstructed from the chunk store instead of shipped.
	DeltaRequests   int64 `json:"delta_requests,omitempty"`
	DeltaMisses     int64 `json:"delta_misses,omitempty"`
	DeltaBytesSaved int64 `json:"delta_bytes_saved,omitempty"`
	// LatencyUSLog2 is the request latency histogram: bucket i counts
	// requests in [2^(i-1), 2^i) microseconds.
	LatencyUSLog2 tier.HistogramSnapshot `json:"latency_us_log2"`
	// Engine embeds Engine.StatsJSON: the specialization-cache counters
	// (and tiering stats, when an embedding application enables them).
	Engine dbrewllvm.EngineStats `json:"engine"`
}

// SnapshotRegions copies every mapped region of mem into wire form — the
// way clients build the Regions field from an address space they already
// hold (the smoke mode and benchmarks snapshot a Workload this way).
func SnapshotRegions(mem *emu.Memory) []Region {
	regions := mem.Regions()
	out := make([]Region, 0, len(regions))
	for _, r := range regions {
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		out = append(out, Region{Addr: r.Start, Data: data})
	}
	return out
}

// SigFromABI converts an abi.Signature to wire form.
func SigFromABI(sig abi.Signature) SigSpec {
	s := SigSpec{Ret: className(sig.Ret)}
	for _, p := range sig.Params {
		s.Params = append(s.Params, className(p))
	}
	return s
}

func className(c abi.Class) string {
	switch c {
	case abi.ClassNone:
		return "none"
	case abi.ClassInt:
		return "int"
	case abi.ClassPtr:
		return "ptr"
	case abi.ClassF64:
		return "f64"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

func classFromName(name string) (abi.Class, error) {
	switch name {
	case "none", "":
		return abi.ClassNone, nil
	case "int":
		return abi.ClassInt, nil
	case "ptr":
		return abi.ClassPtr, nil
	case "f64":
		return abi.ClassF64, nil
	}
	return 0, fmt.Errorf("unknown parameter class %q (want int, ptr, f64, or none)", name)
}

// ABISignature converts the wire signature back to an abi.Signature.
func (s SigSpec) ABISignature() (abi.Signature, error) {
	ret, err := classFromName(s.Ret)
	if err != nil {
		return abi.Signature{}, fmt.Errorf("sig.ret: %w", err)
	}
	sig := abi.Signature{Ret: ret}
	for i, p := range s.Params {
		c, err := classFromName(p)
		if err != nil {
			return abi.Signature{}, fmt.Errorf("sig.params[%d]: %w", i, err)
		}
		if c == abi.ClassNone {
			return abi.Signature{}, fmt.Errorf("sig.params[%d]: parameters cannot be \"none\"", i)
		}
		sig.Params = append(sig.Params, c)
	}
	return sig, nil
}
