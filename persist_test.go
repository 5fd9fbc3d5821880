package dbrewllvm

// Engine-level tests for the persistent cache level: warm restart over the
// same cache directory, multi-level eviction via RemoveSpecialization, and
// corruption recovery — always gated on byte identity with the in-process
// compile.

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codecache"
	"repro/internal/diskcache"
)

// diskSetup is cacheSetup plus a disk level over dir. The allocation order
// is deterministic, so two engines built by this helper place the kernel and
// the coefficient buffer at identical addresses — the precondition for their
// specialization keys to match across a "restart".
func diskSetup(t *testing.T, dir string) (e *Engine, fn, buf uint64) {
	t.Helper()
	e = NewEngine()
	e.EnableCache(64)
	if err := e.EnableDiskCache(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	buf = e.Alloc(16, "coeffs")
	if err := e.Mem.WriteFloat64(buf, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := e.Mem.WriteFloat64(buf+8, 0.5); err != nil {
		t.Fatal(err)
	}
	fn = buildDot(t, e)
	return e, fn, buf
}

func codeBytes(t *testing.T, e *Engine, addr uint64, size int) []byte {
	t.Helper()
	b, err := e.Mem.Read(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), b...)
}

// TestDiskCacheWarmRestart is the PR's headline acceptance path: a fresh
// engine over the same cache directory serves the specialization from disk
// — byte-identical code, zero compiles.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()

	// Cold process: compiles once, writes through to disk.
	e1, fn, buf := diskSetup(t, dir)
	r1 := newDotRewriter(e1, fn, buf)
	a1, err := r1.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != "compile" {
		t.Fatalf("cold Rewrite Source = %q, want compile", r1.Source)
	}
	if got := e1.CompileCount(); got != 1 {
		t.Fatalf("cold CompileCount = %d, want 1", got)
	}
	if st, ok := e1.DiskStats(); !ok || st.Writes != 1 {
		t.Fatalf("disk stats after cold compile: ok=%v %v", ok, st)
	}
	want := codeBytes(t, e1, a1, r1.CodeSize)

	// Restarted process: same directory, same (deterministic) layout. The
	// rewrite must restore from disk without running the pipeline.
	e2, fn2, buf2 := diskSetup(t, dir)
	r2 := newDotRewriter(e2, fn2, buf2)
	a2, err := r2.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != "disk" {
		t.Fatalf("warm-restart Rewrite Source = %q, want disk", r2.Source)
	}
	if r2.CacheHit {
		t.Fatal("disk restore must not report an in-memory cache hit")
	}
	if got := e2.CompileCount(); got != 0 {
		t.Fatalf("warm-restart CompileCount = %d, want 0", got)
	}
	if got := codeBytes(t, e2, a2, r2.CodeSize); !bytes.Equal(got, want) {
		t.Fatal("disk-restored code differs from the in-process compile")
	}
	if r2.Stats.Decoded != r1.Stats.Decoded || r2.Stats.Emitted != r1.Stats.Emitted {
		t.Fatalf("restored stats %+v differ from compiled stats %+v", r2.Stats, r1.Stats)
	}
	got, err := e2.CallF(a2, []uint64{buf2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4.5 {
		t.Errorf("disk-restored specialization = %g, want 4.5", got)
	}

	// Third rewrite in the restarted process hits memory, not disk.
	r3 := newDotRewriter(e2, fn2, buf2)
	if _, err := r3.Rewrite(); err != nil {
		t.Fatal(err)
	}
	if r3.Source != "memory" || !r3.CacheHit {
		t.Errorf("repeat Rewrite Source = %q hit=%v, want memory hit", r3.Source, r3.CacheHit)
	}
}

// TestRemoveSpecializationEvictsAllLevels: satellite 6's engine half —
// removing a key must drop the in-memory entry, delete the disk artifact,
// and fire the eviction notifier (where the fleet broadcast hangs), and the
// next Rewrite must recompile rather than resurrect from a lower level.
func TestRemoveSpecializationEvictsAllLevels(t *testing.T) {
	dir := t.TempDir()
	e, fn, buf := diskSetup(t, dir)

	var notified []string
	e.SetEvictNotifier(func(k codecache.Key) { notified = append(notified, k.String()) })

	r := newDotRewriter(e, fn, buf)
	if _, err := r.Rewrite(); err != nil {
		t.Fatal(err)
	}
	key, ok := r.CacheKey()
	if !ok {
		t.Fatal("CacheKey not computable")
	}
	if has, ok := e.DiskHas(key); !ok || !has {
		t.Fatalf("artifact not on disk after compile: has=%v ok=%v", has, ok)
	}

	if !e.RemoveSpecialization(key) {
		t.Fatal("RemoveSpecialization of a cached key reported false")
	}
	if cached, _, _ := e.CachePeek(key); cached {
		t.Fatal("memory level still holds the removed key")
	}
	if has, _ := e.DiskHas(key); has {
		t.Fatal("disk level still holds the removed key")
	}
	// The removal is on disk too: a store reopened over the directory does
	// not index the key.
	if reopened, err := diskcache.Open(dir, 1<<20); err != nil {
		t.Fatal(err)
	} else if reopened.Contains(key) {
		t.Fatal("removed artifact back after reopen")
	} else {
		reopened.Close()
	}
	if len(notified) != 1 || notified[0] != key.String() {
		t.Fatalf("eviction notifier saw %v, want exactly [%s]", notified, key)
	}

	// No resurrection: the next rewrite compiles.
	before := e.CompileCount()
	r2 := newDotRewriter(e, fn, buf)
	if _, err := r2.Rewrite(); err != nil {
		t.Fatal(err)
	}
	if r2.Source != "compile" {
		t.Fatalf("Rewrite after removal Source = %q, want compile", r2.Source)
	}
	if e.CompileCount() != before+1 {
		t.Fatal("Rewrite after removal did not recompile")
	}
}

// TestDiskCorruptionRecompilesIdentical: a corrupt artifact must read as a
// miss and the recompile must reproduce byte-identical code.
func TestDiskCorruptionRecompilesIdentical(t *testing.T) {
	dir := t.TempDir()
	e1, fn, buf := diskSetup(t, dir)
	r1 := newDotRewriter(e1, fn, buf)
	a1, err := r1.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	want := codeBytes(t, e1, a1, r1.CodeSize)
	key, _ := r1.CacheKey()

	// Flip one bit in the persisted payload.
	flipLastRecordByte(t, dir, key)

	// The restarted process rejects the artifact and recompiles.
	e2, fn2, buf2 := diskSetup(t, dir)
	r2 := newDotRewriter(e2, fn2, buf2)
	a2, err := r2.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != "compile" {
		t.Fatalf("Rewrite over corrupt artifact Source = %q, want compile", r2.Source)
	}
	if st, _ := e2.DiskStats(); st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
	if got := codeBytes(t, e2, a2, r2.CodeSize); !bytes.Equal(got, want) {
		t.Fatal("recompile after corruption produced different code")
	}
	// And the recompile healed the disk slot.
	if has, _ := e2.DiskHas(key); !has {
		t.Fatal("recompile did not write the artifact back")
	}
}

// flipLastRecordByte flips a bit in the last payload byte of key's artifact
// record, wherever in the store's log files under dir it lies.
func flipLastRecordByte(t *testing.T, dir string, key codecache.Key) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		path := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A record is "DBRWART1", a checksum, the key, three section lengths.
		i := bytes.Index(raw, key[:])
		if i < 16 || string(raw[i-16:i-8]) != "DBRWART1" || len(raw) < i+28 {
			continue
		}
		end := i + 28
		for j := 0; j < 3; j++ {
			end += int(binary.LittleEndian.Uint32(raw[i+16+4*j:]))
		}
		raw[end-1] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no record of %v under %s", key, dir)
}

// TestArtifactForAndAdopt: the fleet primitives — exporting an artifact
// from one engine and adopting it into another must be byte-identical and
// compile-free on the adopting side.
func TestArtifactForAndAdopt(t *testing.T) {
	dir1 := t.TempDir()
	e1, fn, buf := diskSetup(t, dir1)
	r1 := newDotRewriter(e1, fn, buf)
	a1, err := r1.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	want := codeBytes(t, e1, a1, r1.CodeSize)
	key, _ := r1.CacheKey()

	art, err := e1.ArtifactFor(context.Background(), key, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art.Code, want) {
		t.Fatal("ArtifactFor returned different code bytes")
	}
	if art.IR == "" {
		t.Fatal("artifact missing captured IR")
	}

	// Unknown key: the not-found sentinel, never a compile.
	if _, err := e1.ArtifactFor(context.Background(), codecache.Key{}, false); err != ErrArtifactNotFound {
		t.Fatalf("ArtifactFor(unknown) = %v, want ErrArtifactNotFound", err)
	}

	// The "peer": same layout, separate cache dir, never compiles.
	e2, fn2, buf2 := diskSetup(t, t.TempDir())
	addr, err := e2.AdoptArtifact(key, art)
	if err != nil {
		t.Fatal(err)
	}
	if got := codeBytes(t, e2, addr, len(art.Code)); !bytes.Equal(got, want) {
		t.Fatal("adopted code differs")
	}
	r2 := newDotRewriter(e2, fn2, buf2)
	a2, err := r2.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != "memory" || a2 != addr {
		t.Fatalf("Rewrite after adoption Source=%q addr=%#x, want memory hit at %#x", r2.Source, a2, addr)
	}
	if e2.CompileCount() != 0 {
		t.Fatal("adopting engine compiled")
	}
	if got, err := e2.CallF(a2, []uint64{buf2}, nil); err != nil || got != 4.5 {
		t.Fatalf("adopted specialization = %g (%v), want 4.5", got, err)
	}
	// Write-through: the adopted artifact is on the peer's disk too.
	if has, _ := e2.DiskHas(key); !has {
		t.Fatal("adopted artifact not written through to disk")
	}
}

// TestDiskHitReusesPlacement: a key that falls out of a one-entry memory
// cache and is restored from disk again reuses the code it placed the first
// time, so alternating disk hits do not map a region each; bytes overwritten
// since the last restore force a fresh placement.
func TestDiskHitReusesPlacement(t *testing.T) {
	dir := t.TempDir()
	keys := []func(r *Rewriter){
		func(r *Rewriter) {},
		func(r *Rewriter) { r.SetBackend(BackendDBrew) },
	}
	e1, fn, buf := diskSetup(t, dir)
	for _, cfg := range keys {
		r := newDotRewriter(e1, fn, buf)
		cfg(r)
		if _, err := r.Rewrite(); err != nil {
			t.Fatal(err)
		}
	}

	e, fn, buf := diskSetup(t, dir)
	e.EnableCache(1)
	restore := func(k int) uint64 {
		t.Helper()
		r := newDotRewriter(e, fn, buf)
		keys[k](r)
		addr, err := r.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		if r.Source != "disk" {
			t.Fatalf("key %d: Source = %q, want disk", k, r.Source)
		}
		if got, err := e.CallF(addr, []uint64{buf}, nil); err != nil || got != 4.5 {
			t.Fatalf("key %d restored at %#x = %g (%v), want 4.5", k, addr, got, err)
		}
		return addr
	}
	// The first call maps the machine stack; count regions after it.
	if got, err := e.CallF(fn, []uint64{buf}, nil); err != nil || got != 4.5 {
		t.Fatalf("original = %g (%v), want 4.5", got, err)
	}
	regions := len(e.Mem.Regions())
	first := []uint64{restore(0), restore(1)}
	for round := 1; round < 50; round++ {
		for k, want := range first {
			if got := restore(k); got != want {
				t.Fatalf("round %d: key %d restored at %#x, first at %#x", round, k, got, want)
			}
		}
	}
	if grown := len(e.Mem.Regions()) - regions; grown > 2 {
		t.Fatalf("100 disk hits of 2 keys mapped %d regions, want at most 2", grown)
	}
	if e.CompileCount() != 0 {
		t.Fatal("disk hits compiled")
	}

	// Overwritten code no longer equals the artifact: place it afresh.
	if err := e.Mem.WriteU(first[0], 1, 0xcc); err != nil {
		t.Fatal(err)
	}
	moved := restore(0)
	if moved == first[0] {
		t.Fatal("overwritten placement reused")
	}
	restore(1)
	if got := restore(0); got != moved {
		t.Fatalf("key 0 restored at %#x after re-placement at %#x", got, moved)
	}

	// Concurrent restores of both keys agree on the placements.
	want := []uint64{moved, first[1]}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				k := (g + n) % 2
				r := newDotRewriter(e, fn, buf)
				keys[k](r)
				if addr, err := r.Rewrite(); err != nil || addr != want[k] {
					t.Errorf("key %d: Rewrite = %#x, %v; want %#x", k, addr, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
