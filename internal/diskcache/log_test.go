package diskcache

// Tests of the log layout itself: torn tails, tombstones across a reopen, no
// file per Put, the disk bound under churn, compaction under concurrent
// traffic, a second Open beside a live store, and the Open/Get fuzzer.

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codecache"
)

func TestTornTailKeepsEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	keys := make([]codecache.Key, 5)
	for i := range keys {
		keys[i] = keyOf(100 + uint64(i))
		if err := s.Put(keys[i], artifactOf(200+i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A writer that died mid-append: the segment ends inside the last
	// record's code section.
	path, off, _ := recordOf(t, s, keys[4])
	if err := os.Truncate(path, off+headerSize+10); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, 1<<20)
	for i, k := range keys[:4] {
		if a, ok := s2.Get(k); !ok || len(a.Code) != 200+i || a.Code[0] != byte(i) {
			t.Fatalf("record %d before the torn tail lost (ok=%v)", i, ok)
		}
	}
	if _, ok := s2.Get(keys[4]); ok {
		t.Fatal("torn record served")
	}
	if st := s2.Stats(); st.Corruptions != 1 || st.Entries != 4 {
		t.Fatalf("stats after torn tail: %v", st)
	}
}

func TestRemoveSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	// Room for two artifacts: putting a third evicts the first.
	s := openT(t, dir, 2*1100)
	a, b, c := keyOf(1), keyOf(2), keyOf(3)
	for _, k := range []codecache.Key{a, b, c} {
		if err := s.Put(k, artifactOf(1024, byte(k[0]))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Contains(a) {
		t.Fatal("a not evicted")
	}
	if !s.Remove(b) {
		t.Fatal("Remove of an indexed key reported false")
	}
	// a's record is still in the log; removing it must keep it from coming
	// back under a larger bound.
	if s.Remove(a) {
		t.Fatal("Remove of an evicted key reported true")
	}
	s2 := openT(t, dir, 1<<20)
	for _, k := range []codecache.Key{a, b} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("removed key %v served after reopen", k)
		}
	}
	if _, ok := s2.Get(c); !ok {
		t.Fatal("surviving key lost across reopen")
	}
}

func TestPutCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<30)
	before, _ := dirUsage(t, dir)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put(keyOf(uint64(i)), artifactOf(64+i%7, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := dirUsage(t, dir); after != before {
		t.Fatalf("%d Puts changed the directory from %d to %d entries", n, before, after)
	}
	s2 := openT(t, dir, 1<<30)
	for i := 0; i < n; i++ {
		if a, ok := s2.Get(keyOf(uint64(i))); !ok || len(a.Code) != 64+i%7 || a.Code[0] != byte(i) {
			t.Fatalf("key %d lost across reopen (ok=%v)", i, ok)
		}
	}
}

func TestDiskBoundedUnderChurn(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 2 << 20
	s := openT(t, dir, maxBytes)
	// The stated bound: the live records (payload plus one header each)
	// at most twice over, plus the compaction floor.
	bound := func() int64 {
		st := s.Stats()
		return 2*(st.Bytes+st.Entries*headerSize) + compactFloor
	}
	var written int64
	var last codecache.Key
	for i := 0; written < 10*maxBytes; i++ {
		a := artifactOf(4000, byte(i))
		last = keyOf(uint64(i), 0xC0DE)
		if err := s.Put(last, a); err != nil {
			t.Fatal(err)
		}
		written += a.payloadSize()
		if i%50 == 0 {
			if _, used := dirUsage(t, dir); used > bound() || used > 2*maxBytes+compactFloor+1<<16 {
				t.Fatalf("after %d bytes written: %d bytes on disk, bound %d", written, used, bound())
			}
		}
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > maxBytes {
		t.Fatalf("stats after churn: %v", st)
	}
	if files, _ := dirUsage(t, dir); files != 1 {
		t.Fatalf("%d files after churn, want the one compacted segment", files)
	}
	s2 := openT(t, dir, maxBytes)
	if _, ok := s2.Get(last); !ok {
		t.Fatal("newest artifact lost across reopen")
	}
	if got, want := s2.Stats().Entries, s.Stats().Entries; got != want {
		t.Fatalf("reopen indexed %d entries, want %d", got, want)
	}
}

// TestConcurrentWritersAndReadersCompacting is TestConcurrentWritersAndReaders
// with compactions forced while the traffic runs: a Get that races one must
// return the artifact or a miss, never a corruption.
func TestConcurrentWritersAndReadersCompacting(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	const (
		workers = 8
		rounds  = 50
	)
	shared := keyOf(0xFFFF)
	done := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		defer func() { compacted <- n }()
		for {
			select {
			case <-done:
				return
			default:
				forceCompact(t, s)
				n++
			}
		}
	}()
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
					if len(a.Code) != 256 || !bytes.Equal(a.Code, bytes.Repeat(a.Code[:1], 256)) {
						t.Error("torn shared artifact observed")
						return
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
	close(done)
	if n := <-compacted; n == 0 {
		t.Fatal("no compaction ran during the traffic")
	}
	if st := s.Stats(); st.Corruptions != 0 {
		t.Fatalf("concurrent traffic produced %d corruption rejections", st.Corruptions)
	}
	s2 := openT(t, dir, 1<<20)
	for w := 0; w < workers; w++ {
		if a, ok := s2.Get(keyOf(uint64(w))); !ok || a.Code[0] != byte(w) {
			t.Fatalf("worker %d's artifact lost across reopen", w)
		}
	}
}

// TestSecondOpenWhileFirstInUse: a restart over the directory of a store
// that is still referenced (and still writing) must work, and each store
// keeps serving its own records.
func TestSecondOpenWhileFirstInUse(t *testing.T) {
	dir := t.TempDir()
	s1 := openT(t, dir, 1<<20)
	k1, k2, k3 := keyOf(1), keyOf(2), keyOf(3)
	if err := s1.Put(k1, artifactOf(32, 1)); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, 1<<20)
	if _, ok := s2.Get(k1); !ok {
		t.Fatal("second store misses the first store's record")
	}
	if err := s1.Put(k2, artifactOf(32, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(k3, artifactOf(32, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s1.Get(k2); !ok {
		t.Fatal("first store lost its own record")
	}
	if _, ok := s2.Get(k3); !ok {
		t.Fatal("second store lost its own record")
	}
	s3 := openT(t, dir, 1<<20)
	for _, k := range []codecache.Key{k1, k2, k3} {
		if _, ok := s3.Get(k); !ok {
			t.Fatalf("key %v lost across the third Open", k)
		}
	}
	if st := s3.Stats(); st.Corruptions != 0 {
		t.Fatalf("third Open: %v", st)
	}
}

// TestOpenCompacts: Open compacts when restarts have left more than
// maxSegments segments, and when a smaller bound leaves dead bytes beyond
// the floor.
func TestOpenCompacts(t *testing.T) {
	dir := t.TempDir()
	k := keyOf(7)
	if err := openT(t, dir, 1<<30).Put(k, artifactOf(64, 7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxSegments; i++ {
		openT(t, dir, 1<<30) // a restart that writes nothing and never closes
	}
	if files, _ := dirUsage(t, dir); files > maxSegments+1 {
		t.Fatalf("%d segments after %d restarts", files, 3*maxSegments)
	}
	if _, ok := openT(t, dir, 1<<30).Get(k); !ok {
		t.Fatal("artifact lost by Open's compaction")
	}

	dir = t.TempDir()
	s := openT(t, dir, 1<<30)
	for i := 0; i < 40; i++ {
		if err := s.Put(keyOf(uint64(i), 1), artifactOf(64<<10, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// 2.5 MiB of records, of which a 256 KiB bound keeps three.
	s2 := openT(t, dir, 256<<10)
	if files, used := dirUsage(t, dir); files != 1 || used > 256<<10+1<<16 {
		t.Fatalf("Open under a smaller bound left %d files, %d bytes", files, used)
	}
	if _, ok := s2.Get(keyOf(39, 1)); !ok {
		t.Fatal("newest artifact lost by Open's compaction")
	}
}

func TestCloseRemovesEmptySegment(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 1<<20)
	if files, _ := dirUsage(t, dir); files != 1 {
		t.Fatalf("Open left %d files, want its segment", files)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ := dirUsage(t, dir); files != 0 {
		t.Fatalf("Close left %d files of an unwritten store", files)
	}
	if _, ok := s.Get(keyOf(1)); ok {
		t.Fatal("closed store hit")
	}
	if err := s.Put(keyOf(1), artifactOf(8, 1)); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
}

// FuzzStoreOpen feeds arbitrary bytes to Open as a segment, alone or after
// the records of a valid one. Neither Open nor Get may panic, and every Get
// that hits must return an artifact whose record some writer put in the log
// under that key.
func FuzzStoreOpen(f *testing.F) {
	valid := append(Encode(keyOf(1), artifactOf(40, 1)), Encode(keyOf(2), artifactOf(0, 2))...)
	k1 := keyOf(1)
	tomb := append([]byte(tombMagic), k1[:]...)
	f.Add([]byte{}, false)
	f.Add([]byte("short"), false)
	f.Add(valid, false)
	f.Add(valid[:len(valid)-3], false)
	f.Add(tomb, true)
	f.Add(Encode(keyOf(3), artifactOf(8, 3))[:headerSize], true)
	f.Add(append(Encode(keyOf(1), artifactOf(40, 9)), "DBRWXXXX"...), true)
	f.Add(append([]byte(magic), bytes.Repeat([]byte{0xff}, 40)...), true)
	f.Fuzz(func(t *testing.T, data []byte, afterValid bool) {
		dir := t.TempDir()
		seg := data
		if afterValid {
			seg = append(append([]byte(nil), valid...), data...)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(s *Store, log []byte) {
			s.mu.Lock()
			keys := []codecache.Key{keyOf(1), keyOf(2), keyOf(3)}
			for k := range s.index {
				keys = append(keys, k)
			}
			s.mu.Unlock()
			for _, k := range keys {
				if a, ok := s.Get(k); ok && !bytes.Contains(log, Encode(k, a)) {
					t.Fatalf("Get(%v) returned an artifact no record holds", k)
				}
			}
		}
		s := openT(t, dir, 1<<20)
		check(s, seg)
		put := artifactOf(16, 0x5A)
		if err := s.Put(keyOf(1), put); err != nil {
			t.Fatal(err)
		}
		if a, ok := s.Get(keyOf(1)); !ok || !bytes.Equal(a.Code, put.Code) {
			t.Fatal("Put after a fuzzed segment not served")
		}
		check(openT(t, dir, 1<<20), append(seg, Encode(keyOf(1), put)...))
	})
}
