package dbrewllvm

// Persistent specialization cache (the disk second level). The in-memory
// codecache makes one process's repeated specializations cheap; this file
// makes them survive the process. Because cache keys content-hash the
// entry, signature, optimization switches, and the bytes of every fixed
// memory range, an artifact on disk is valid forever under its key: a
// restarted dbrewd that receives the same snapshot computes the same key
// and restores the same code bytes without compiling. The same
// content-addressing is what makes artifacts safely shippable between
// fleet peers (internal/cluster + internal/service wire that up).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/codecache"
	"repro/internal/dbrew"
	"repro/internal/diskcache"
	"repro/internal/trace"
)

// ErrArtifactNotFound reports that ArtifactFor found no artifact for the
// key in memory, on disk, or (when waiting was requested) from an in-flight
// compilation.
var ErrArtifactNotFound = errors.New("dbrewllvm: no artifact for key")

// artifactMeta is the JSON metadata section of a persisted artifact:
// dbrew.Stats flattened into marshalable fields.
type artifactMeta struct {
	Decoded    int    `json:"decoded"`
	Emitted    int    `json:"emitted"`
	Eliminated int    `json:"eliminated"`
	Inlined    int    `json:"inlined"`
	CodeSize   int    `json:"code_size"`
	Failed     bool   `json:"failed,omitempty"`
	ErrText    string `json:"err,omitempty"`
}

func metaFromStats(st dbrew.Stats, codeSize int) []byte {
	m := artifactMeta{
		Decoded:    st.Decoded,
		Emitted:    st.Emitted,
		Eliminated: st.Eliminated,
		Inlined:    st.Inlined,
		CodeSize:   codeSize,
		Failed:     st.Failed,
	}
	if st.Err != nil {
		m.ErrText = st.Err.Error()
	}
	b, _ := json.Marshal(m)
	return b
}

func statsFromMeta(meta []byte) (dbrew.Stats, error) {
	var m artifactMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return dbrew.Stats{}, fmt.Errorf("dbrewllvm: artifact meta: %w", err)
	}
	st := dbrew.Stats{
		Decoded:    m.Decoded,
		Emitted:    m.Emitted,
		Eliminated: m.Eliminated,
		Inlined:    m.Inlined,
		CodeSize:   m.CodeSize,
		Failed:     m.Failed,
	}
	if m.ErrText != "" {
		st.Err = errors.New(m.ErrText)
	}
	return st, nil
}

// EnableDiskCache attaches a persistent artifact store at dir as the second
// cache level: Rewrite misses consult it before compiling (a disk hit
// places the stored code bytes and skips the pipeline entirely), and fresh
// compiles write through to it — so a process restarted over the same
// directory serves previously compiled specializations without recompiling.
// maxBytes bounds the total stored payload with LRU eviction (<= 0 selects
// diskcache.DefaultMaxBytes). Corrupt records are checksum-rejected,
// dropped, and recompiled; they can never surface as wrong code.
//
// The disk level requires the in-memory cache; if EnableCache has not been
// called yet, it is enabled with its default capacity. Like EnableCache,
// call only while no Rewrite is in flight.
func (e *Engine) EnableDiskCache(dir string, maxBytes int64) error {
	store, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	if e.cache == nil {
		e.cache = codecache.New[cachedCode](0)
	}
	if old := e.disk.Swap(store); old != nil {
		old.Close()
	}
	e.wireRemoveHook()
	return nil
}

// DisableDiskCache detaches and closes the disk store; artifacts already
// written remain on disk for a later EnableDiskCache over the same directory.
// Readers of the store's counters (DiskStats, DiskHas) may run concurrently;
// nothing may use the store itself, so no Rewrite may be in flight.
func (e *Engine) DisableDiskCache() {
	if d := e.disk.Swap(nil); d != nil {
		d.Close()
	}
	e.wireRemoveHook()
}

// DiskStats returns a snapshot of the disk artifact-store counters.
//
// When the disk cache is disabled — EnableDiskCache was never called, or
// DisableDiskCache ran — it returns the zero diskcache.Stats as a
// documented sentinel together with ok == false, exactly mirroring the
// CacheStats and TierStats contracts. Callers must branch on ok: a zero
// Stats with ok == true is an enabled store that has simply seen no
// traffic, which is a different situation from "no disk cache at all". See
// the ExampleEngine_DiskStats godoc example.
func (e *Engine) DiskStats() (st diskcache.Stats, ok bool) {
	d := e.disk.Load()
	if d == nil {
		return diskcache.Stats{}, false
	}
	return d.Stats(), true
}

// DiskHas reports whether an artifact for k is currently indexed on disk
// (advisory, like CachePeek: a later read may still checksum-reject it).
// ok is false when the disk cache is disabled.
func (e *Engine) DiskHas(k codecache.Key) (has, ok bool) {
	d := e.disk.Load()
	if d == nil {
		return false, false
	}
	return d.Contains(k), true
}

// wireRemoveHook keeps the explicit-Remove hook of the in-memory
// specialization cache pointed at the lower levels: removing a
// specialization key drops the disk artifact and then notifies the eviction
// observer (the fleet layer's broadcast). Hook firing order is memory →
// disk → notifier, so by the time a peer hears about the eviction the local
// levels are already clean.
func (e *Engine) wireRemoveHook() {
	hook := func(k codecache.Key) {
		if d := e.disk.Load(); d != nil {
			d.Remove(k)
		}
		if fn := e.evictNotify; fn != nil {
			fn(k)
		}
	}
	if e.cache != nil {
		e.cache.SetRemoveHook(hook)
	}
}

// SetEvictNotifier installs fn to observe every explicit specialization
// removal (RemoveSpecialization) after the in-memory and disk levels dropped
// the key. The dbrewd fleet layer registers the
// peer eviction broadcast here. Install before serving traffic; fn must not
// call back into Remove for the same key.
func (e *Engine) SetEvictNotifier(fn func(codecache.Key)) {
	e.evictNotify = fn
	e.wireRemoveHook()
}

// RemoveSpecialization declares the specialization k stale and drops it
// from every cache level — the in-memory entry, the disk artifact, and (via
// the eviction notifier) the owning peer — so it cannot be resurrected from
// a lower level. It reports whether the in-memory level held the key.
// Generated code already placed stays valid and callable; the next Rewrite
// for the key recompiles. An in-flight compilation is unaffected and will
// re-insert its (by construction equivalent) result.
func (e *Engine) RemoveSpecialization(k codecache.Key) bool {
	if e.cache == nil {
		// No memory level: still scrub disk and notify, honoring the
		// "cannot be resurrected" contract.
		if d := e.disk.Load(); d != nil {
			d.Remove(k)
		}
		if fn := e.evictNotify; fn != nil {
			fn(k)
		}
		return false
	}
	return e.cache.Remove(k)
}

// diskLookup consults the disk store for key inside a cache miss: a valid
// artifact is returned as restored cachedCode, at the address of this key's
// previous restore when the bytes there still equal the artifact's code, and
// placed into a fresh region otherwise. tr may be nil.
func (e *Engine) diskLookup(key codecache.Key, tr *trace.Trace) (cachedCode, bool) {
	d := e.disk.Load()
	if d == nil {
		return cachedCode{}, false
	}
	sp := tr.Start("disk")
	a, ok := d.Get(key)
	if !ok {
		sp.Outcome("miss").End()
		return cachedCode{}, false
	}
	stats, err := statsFromMeta(a.Meta)
	if err != nil {
		// Structurally valid artifact with unusable metadata: drop it and
		// recompile rather than serving half-restored state.
		d.Remove(key)
		sp.EndErr(err)
		return cachedCode{}, false
	}
	addr := e.placeRestored(key, a.Code)
	sp.Int("code_bytes", int64(len(a.Code))).Outcome("hit").End()
	return cachedCode{addr: addr, codeSize: len(a.Code), stats: stats}, true
}

// placeRestored returns the address of key's previous restore when the bytes
// there still equal code, and places code into a fresh region otherwise.
func (e *Engine) placeRestored(key codecache.Key, code []byte) uint64 {
	e.restoredMu.Lock()
	defer e.restoredMu.Unlock()
	if addr, ok := e.restored[key]; ok {
		if placed, err := e.Mem.Bytes(addr, len(code)); err == nil && bytes.Equal(placed, code) {
			return addr
		}
	}
	addr := e.PlaceCode(code, "diskcache.artifact")
	e.restored[key] = addr
	return addr
}

// diskWrite persists a freshly compiled specialization (write-through),
// together with the optimized IR text the compile formatted for it. Failures
// are recorded in the trace but otherwise ignored: the disk level is an
// optimization, never a correctness dependency.
func (e *Engine) diskWrite(key codecache.Key, cc cachedCode, irText string, tr *trace.Trace) {
	d := e.disk.Load()
	if d == nil {
		return
	}
	code, err := e.Mem.Read(cc.addr, cc.codeSize)
	if err != nil {
		return
	}
	a := &diskcache.Artifact{Code: code, IR: irText, Meta: metaFromStats(cc.stats, cc.codeSize)}
	sp := tr.Start("disk_write").Int("code_bytes", int64(len(code)))
	if err := d.Put(key, a); err != nil {
		sp.EndErr(err)
		return
	}
	sp.End()
}

// ArtifactFor assembles the persisted-artifact form of the specialization k:
// from the disk store, which alone keeps the optimized IR text, else from
// the in-memory cache (code bytes read back from the address space, no IR).
// When wait is true and a compilation for k is in flight, it blocks
// (bounded by ctx) and returns that compilation's result. It reports
// ErrArtifactNotFound when no level has the key — it never starts a
// compilation. This is the read side of the fleet protocol:
// GET /artifact/{key} serves exactly this.
func (e *Engine) ArtifactFor(ctx context.Context, k codecache.Key, wait bool) (*diskcache.Artifact, error) {
	if d := e.disk.Load(); d != nil {
		if a, ok := d.Get(k); ok {
			return a, nil
		}
	}
	c := e.cache
	if c == nil {
		return nil, ErrArtifactNotFound
	}
	cc, ok := c.Get(k)
	if !ok && wait {
		var err error
		if cc, ok, err = c.Wait(ctx, k); err != nil {
			return nil, err
		}
	}
	if !ok {
		return nil, ErrArtifactNotFound
	}
	return e.artifactFromCached(cc)
}

func (e *Engine) artifactFromCached(cc cachedCode) (*diskcache.Artifact, error) {
	code, err := e.Mem.Read(cc.addr, cc.codeSize)
	if err != nil {
		return nil, fmt.Errorf("dbrewllvm: reading cached code: %w", err)
	}
	return &diskcache.Artifact{Code: code, Meta: metaFromStats(cc.stats, cc.codeSize)}, nil
}

// AdoptArtifact installs an externally produced artifact (a peer fetch, or
// a forwarded compile's response) under key k: the code bytes are placed
// into the address space, the in-memory cache entry is inserted, and the
// artifact is written through to the disk store. It returns the address the
// code was placed at. Adoption is exactly as trustworthy as the artifact's
// key derivation — callers must only adopt artifacts for keys they computed
// themselves from content they verified (the service layer does: the key
// hashes the snapshot it placed).
func (e *Engine) AdoptArtifact(k codecache.Key, a *diskcache.Artifact) (uint64, error) {
	stats, err := statsFromMeta(a.Meta)
	if err != nil {
		return 0, err
	}
	addr := e.PlaceCode(a.Code, "cluster.artifact")
	cc := cachedCode{addr: addr, codeSize: len(a.Code), stats: stats}
	if c := e.cache; c != nil {
		c.Add(k, cc)
	}
	if d := e.disk.Load(); d != nil {
		d.Put(k, a) // best-effort write-through
	}
	return addr, nil
}
