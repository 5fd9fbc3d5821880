package diskcache

// Crash/corruption-safety suite: torn appends, truncation, bit flips,
// foreign records, concurrent writers and readers (with and without a
// compaction under them), and leftovers of the file-per-key layout must all
// read as misses — never as wrong data and never as a crash — and stay
// misses across a reopen. Run with -race.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codecache"
)

func keyOf(parts ...uint64) codecache.Key {
	h := codecache.NewHasher()
	for _, p := range parts {
		h.U64(p)
	}
	return h.Sum()
}

func artifactOf(n int, tag byte) *Artifact {
	code := bytes.Repeat([]byte{tag}, n)
	return &Artifact{Code: code, IR: fmt.Sprintf("define @f%d()", tag), Meta: []byte(`{"v":1}`)}
}

func openT(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordOf returns where k's indexed record lies.
func recordOf(t *testing.T, s *Store, k codecache.Key) (path string, off, n int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[k]
	if !ok {
		t.Fatalf("key %v not indexed", k)
	}
	e := el.Value.(*diskEntry)
	return e.seg.path, e.off, e.n
}

// writeAt overwrites bytes of a file in place, the way disk damage would.
func writeAt(t *testing.T, path string, b []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func readAt(t *testing.T, path string, off, n int64) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, n)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	return b
}

// dirUsage returns the number of directory entries and their total size.
func dirUsage(t *testing.T, dir string) (files int, bytes int64) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytes += info.Size()
	}
	return len(des), bytes
}

// forceCompact runs a compaction now, whatever the dead bytes.
func forceCompact(t *testing.T, s *Store) {
	t.Helper()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.compact(); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	k := keyOf(1, 2, 3)
	a := &Artifact{Code: []byte{0x48, 0x89, 0xf8, 0xc3}, IR: "define i64 @f()", Meta: []byte(`{"decoded":7}`)}
	k2, got, err := Decode(Encode(k, a))
	if err != nil {
		t.Fatal(err)
	}
	if k2 != k {
		t.Fatalf("decoded key %v, want %v", k2, k)
	}
	if !bytes.Equal(got.Code, a.Code) || got.IR != a.IR || !bytes.Equal(got.Meta, a.Meta) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
	// Empty sections round-trip too.
	if _, got, err = Decode(Encode(k, &Artifact{})); err != nil {
		t.Fatal(err)
	} else if len(got.Code) != 0 || got.IR != "" || len(got.Meta) != 0 {
		t.Fatalf("empty artifact round trip: %+v", got)
	}
}

func TestPutGetPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	k := keyOf(42)
	a := artifactOf(128, 0xAB)
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got.Code, a.Code) {
		t.Fatalf("Get after Put: ok=%v", ok)
	}

	// A fresh Store over the same directory (the restart) finds it again.
	s2 := openT(t, dir, 1<<20)
	got, ok = s2.Get(k)
	if !ok {
		t.Fatal("artifact lost across reopen")
	}
	if !bytes.Equal(got.Code, a.Code) || got.IR != a.IR || !bytes.Equal(got.Meta, a.Meta) {
		t.Fatal("artifact bytes changed across reopen")
	}
	if st := s2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("reopened stats: %v", st)
	}
}

func TestTruncatedArtifactRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	k := keyOf(7)
	want := artifactOf(256, 0x11)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	path, off, _ := recordOf(t, s, k)
	// Truncate mid-payload: the read comes up short.
	if err := os.Truncate(path, off+headerSize+100); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated artifact served as valid")
	}
	st := s.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	if s.Contains(k) {
		t.Fatal("corrupt record still indexed")
	}
	// The tombstone keeps the damaged record out of a restarted index.
	if _, ok := openT(t, dir, 1<<20).Get(k); ok {
		t.Fatal("truncated artifact served after reopen")
	}
	// Recompile-and-Put heals the slot, also across a reopen.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("healed artifact not served")
	}
	if got, ok := openT(t, dir, 1<<20).Get(k); !ok || !bytes.Equal(got.Code, want.Code) {
		t.Fatal("healed artifact not served after reopen")
	}
}

func TestBitFlippedPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	k := keyOf(9)
	if err := s.Put(k, artifactOf(512, 0x22)); err != nil {
		t.Fatal(err)
	}
	path, off, _ := recordOf(t, s, k)
	// Single bit flip deep in the code section.
	at := off + headerSize + 300
	writeAt(t, path, []byte{readAt(t, path, at, 1)[0] ^ 0x01}, at)
	if _, ok := s.Get(k); ok {
		t.Fatal("bit-flipped artifact served as valid")
	}
	if st := s.Stats(); st.Corruptions != 1 || st.Misses != 1 {
		t.Fatalf("stats after bit flip: %v", st)
	}
	// After a reopen the tombstone, not a second checksum failure, keeps
	// the record out.
	s2 := openT(t, dir, 1<<20)
	if _, ok := s2.Get(k); ok {
		t.Fatal("bit-flipped artifact served after reopen")
	}
	if st := s2.Stats(); st.Corruptions != 0 || st.Entries != 0 {
		t.Fatalf("stats after reopen: %v", st)
	}
}

func TestHeaderTooShortRejectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	k0, k := keyOf(4), keyOf(3)
	// A segment whose last record is shorter than a header: the record
	// before it is intact, the tail cannot be anything but a torn append.
	seg := append(Encode(k0, artifactOf(16, 0x01)), Encode(k, artifactOf(16, 0x02))[:headerSize-4]...)
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		s := openT(t, dir, 1<<20)
		if s.Len() != 1 || s.Contains(k) {
			t.Fatalf("open %d: sub-header record indexed (len %d)", reopen, s.Len())
		}
		if st := s.Stats(); st.Corruptions != 1 {
			t.Fatalf("open %d: corruptions = %d, want 1", reopen, st.Corruptions)
		}
		if _, ok := s.Get(k0); !ok {
			t.Fatalf("open %d: intact record before the torn tail lost", reopen)
		}
	}
}

func TestKillBetweenWriteAndRenameSwept(t *testing.T) {
	dir := t.TempDir()
	k := keyOf(5)
	// The file-per-key layout of earlier versions: a writer that died after
	// writing its temp file but before the rename left a complete, valid
	// encoding under a temp name, next to a committed <key>.art file.
	tmpPath := filepath.Join(dir, k.String()+".tmp123456")
	artPath := filepath.Join(dir, keyOf(6).String()+".art")
	for _, p := range []string{tmpPath, artPath} {
		if err := os.WriteFile(p, Encode(k, artifactOf(64, 0x33)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir, 1<<20)
	for _, p := range []string{tmpPath, artPath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("legacy file %s survived Open", filepath.Base(p))
		}
	}
	// Neither key is visible: both recompile once. A fresh Put works
	// normally and persists.
	if _, ok := s.Get(k); ok {
		t.Fatal("uncommitted artifact visible")
	}
	if _, ok := s.Get(keyOf(6)); ok {
		t.Fatal("legacy artifact visible")
	}
	if err := s.Put(k, artifactOf(64, 0x33)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("Put after sweep failed")
	}
	if _, ok := openT(t, dir, 1<<20).Get(k); !ok {
		t.Fatal("Put after sweep lost across reopen")
	}
}

func TestWrongKeyFileRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	k1, k2 := keyOf(1), keyOf(2)
	if err := s.Put(k1, artifactOf(64, 0x44)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, artifactOf(64, 0x45)); err != nil {
		t.Fatal(err)
	}
	// Copy k1's (internally consistent) record over k2's: the embedded key
	// disagrees with the key it is indexed under, so it must not serve for
	// k2.
	p1, off1, n1 := recordOf(t, s, k1)
	p2, off2, n2 := recordOf(t, s, k2)
	if n1 != n2 {
		t.Fatalf("record lengths %d and %d differ", n1, n2)
	}
	writeAt(t, p2, readAt(t, p1, off1, n1), off2)
	if _, ok := s.Get(k2); ok {
		t.Fatal("foreign record served")
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	s2 := openT(t, dir, 1<<20)
	if _, ok := s2.Get(k2); ok {
		t.Fatal("foreign record served after reopen")
	}
	if a, ok := s2.Get(k1); !ok || a.Code[0] != 0x44 {
		t.Fatal("k1 lost across reopen")
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	dir := t.TempDir()
	// Each artifact is ~1KiB of payload; bound to ~3 of them.
	s := openT(t, dir, 3*1100)
	keys := make([]codecache.Key, 5)
	for i := range keys {
		keys[i] = keyOf(uint64(i))
		if err := s.Put(keys[i], artifactOf(1024, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 3*1100 {
		t.Fatalf("bytes = %d over bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte bound")
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest artifact survived eviction")
	}
	if _, ok := s.Get(keys[4]); !ok {
		t.Fatal("newest artifact evicted")
	}
	// The evicted artifact stays evicted across a reopen under the same
	// bound.
	s2 := openT(t, dir, 3*1100)
	if _, ok := s2.Get(keys[0]); ok {
		t.Fatal("evicted artifact back after reopen")
	}
	if _, ok := s2.Get(keys[4]); !ok {
		t.Fatal("newest artifact lost across reopen")
	}
}

func TestOpenEvictsOverBound(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	for i := 0; i < 4; i++ {
		if err := s.Put(keyOf(uint64(i)), artifactOf(1024, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with a tighter bound: the scan itself evicts the oldest.
	s2 := openT(t, dir, 2*1100)
	if st := s2.Stats(); st.Bytes > 2*1100 || st.Entries > 2 {
		t.Fatalf("reopen did not enforce the bound: %v", st)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	k := keyOf(1)
	if err := s.Put(k, artifactOf(32, 0x55)); err != nil {
		t.Fatal(err)
	}
	if !s.Remove(k) {
		t.Fatal("Remove of stored key reported false")
	}
	if s.Remove(k) {
		t.Fatal("second Remove reported true")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("removed artifact still served")
	}
	s2 := openT(t, dir, 1<<20)
	if _, ok := s2.Get(k); ok || s2.Len() != 0 {
		t.Fatal("removed artifact served after reopen")
	}
}

// TestConcurrentWritersAndReaders hammers one store with same-key and
// distinct-key traffic; under -race this pins the locking discipline, and
// every successful Get must decode to one of the values some writer wrote.
func TestConcurrentWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	const (
		workers = 8
		rounds  = 50
	)
	shared := keyOf(0xFFFF)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := keyOf(uint64(w))
			for i := 0; i < rounds; i++ {
				if err := s.Put(shared, artifactOf(256, byte(w))); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(own, artifactOf(128, byte(w))); err != nil {
					t.Error(err)
					return
				}
				if a, ok := s.Get(shared); ok {
					if len(a.Code) != 256 {
						t.Errorf("shared artifact has %d code bytes, want 256", len(a.Code))
						return
					}
					// All bytes must come from ONE writer: no torn mixes.
					for _, b := range a.Code[1:] {
						if b != a.Code[0] {
							t.Error("torn artifact observed")
							return
						}
					}
				}
				if a, ok := s.Get(own); !ok || a.Code[0] != byte(w) {
					t.Errorf("worker %d lost its own artifact (ok=%v)", w, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("concurrent traffic produced %d corruption rejections", st.Corruptions)
	}
}
