// Package diskcache implements the persistent second level of the
// specialization cache: an on-disk, content-addressed artifact store kept as
// an append-only log. Because codecache keys canonically hash the entry,
// signature, optimization configuration, and the *contents* of every fixed
// memory range, an artifact written under a key is valid for as long as its
// record survives — across process restarts and across machines — and a
// mutated input simply produces a different key. The store therefore never
// needs coherence traffic; it only needs integrity, which the checksummed
// record format provides: a torn, truncated, or bit-flipped record fails its
// checksum on read, is dropped, and reads as a miss (the caller recompiles),
// never as a crash or as wrong code.
//
// The directory holds segment files, seg-<seq>.log. Each Open creates a
// segment of its own and appends every record to it with one write through
// a file it holds open, so a Put creates no file; the own segment and a rare
// compaction are the only files a store creates. A record is exactly the
// Encode bytes of the artifact; a removal is a tombstone record (its own
// magic plus the key). Open indexes the older segments in sequence order by
// walking the record headers, without checksumming: a later record or
// tombstone for a key supersedes an earlier one, and a record that runs past
// the end of its segment — a writer that died mid-append — ends that
// segment's scan and counts as a corruption. Two stores over one directory
// never write the same file, so a second Open works while the first store is
// still in use; it sees the first store's records up to the moment of the
// Open. (A compaction by one of them deletes the other's segment, so what the
// other appends afterwards reaches no later Open.)
//
// The store is bounded by total payload bytes with LRU eviction, kept in the
// index (access order in memory, record order across restarts). Superseded,
// evicted and removed records are dead bytes; once they exceed the live
// bytes plus a fixed floor, every live record is copied into a fresh segment
// and the older segments are deleted, at Open or at runtime. Disk use thus
// stays within about twice the byte bound.
//
// Directories written by earlier versions held one <key>.art file per key,
// written through a *.tmp file and a rename. Open deletes such files; their
// keys recompile once.
package diskcache

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/codecache"
)

// Artifact is one cached compilation result: the generated machine code,
// the formatted IR it was compiled from (empty when the producing pipeline
// did not run the IR backend), and an opaque metadata blob (the engine
// stores its compile statistics here as JSON; this package does not
// interpret it). The same encoding serves as the artifact wire format of
// the fleet's GET /artifact/{key} endpoint, so a peer fetch is verified by
// the same checksum as a disk read.
type Artifact struct {
	Code []byte
	IR   string
	Meta []byte
}

// payloadSize is the artifact's contribution to the store's byte bound.
func (a *Artifact) payloadSize() int64 {
	return int64(len(a.Code) + len(a.IR) + len(a.Meta))
}

// Artifact record layout (little-endian), the same bytes on disk and on the
// wire:
//
//	offset size field
//	     0    8 magic "DBRWART1"
//	     8    8 CRC64-ECMA over bytes [16, end of record)
//	    16   16 cache key (self-describing: a record read for another
//	               key is rejected)
//	    32    4 code length
//	    36    4 IR length
//	    40    4 meta length
//	    44    . code bytes, IR bytes, meta bytes
//
// The fixed 44-byte header in front of raw section bytes keeps the layout
// mmap-friendly: code starts at a constant offset and sections are
// contiguous and unencoded.
const (
	magic      = "DBRWART1"
	headerSize = 44
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes the artifact under key k in the checksummed record/wire
// format.
func Encode(k codecache.Key, a *Artifact) []byte {
	buf := make([]byte, headerSize+int(a.payloadSize()))
	copy(buf[0:8], magic)
	copy(buf[16:32], k[:])
	binary.LittleEndian.PutUint32(buf[32:36], uint32(len(a.Code)))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(len(a.IR)))
	binary.LittleEndian.PutUint32(buf[40:44], uint32(len(a.Meta)))
	p := buf[headerSize:]
	copy(p, a.Code)
	copy(p[len(a.Code):], a.IR)
	copy(p[len(a.Code)+len(a.IR):], a.Meta)
	binary.LittleEndian.PutUint64(buf[8:16], crc64.Checksum(buf[16:], crcTable))
	return buf
}

// Decode parses and verifies an encoded artifact, returning the key it was
// written under. Any structural or checksum violation is an error — the
// caller treats it as corruption, not as data.
func Decode(buf []byte) (codecache.Key, *Artifact, error) {
	var k codecache.Key
	if len(buf) < headerSize {
		return k, nil, fmt.Errorf("diskcache: artifact truncated: %d bytes < %d-byte header", len(buf), headerSize)
	}
	if string(buf[0:8]) != magic {
		return k, nil, fmt.Errorf("diskcache: bad magic %q", buf[0:8])
	}
	sum := binary.LittleEndian.Uint64(buf[8:16])
	if got := crc64.Checksum(buf[16:], crcTable); got != sum {
		return k, nil, fmt.Errorf("diskcache: checksum mismatch: header %#x, computed %#x", sum, got)
	}
	copy(k[:], buf[16:32])
	nCode := int(binary.LittleEndian.Uint32(buf[32:36]))
	nIR := int(binary.LittleEndian.Uint32(buf[36:40]))
	nMeta := int(binary.LittleEndian.Uint32(buf[40:44]))
	if headerSize+nCode+nIR+nMeta != len(buf) {
		return k, nil, fmt.Errorf("diskcache: section lengths %d+%d+%d disagree with %d payload bytes",
			nCode, nIR, nMeta, len(buf)-headerSize)
	}
	p := buf[headerSize:]
	a := &Artifact{
		Code: append([]byte(nil), p[:nCode]...),
		IR:   string(p[nCode : nCode+nIR]),
		Meta: append([]byte(nil), p[nCode+nIR:]...),
	}
	return k, a, nil
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Hits counts Gets served from a valid record.
	Hits int64
	// Misses counts Gets that found no (valid) record.
	Misses int64
	// Writes counts artifacts persisted by Put.
	Writes int64
	// Evictions counts artifacts dropped by the byte-capacity bound.
	Evictions int64
	// Corruptions counts records rejected by Decode or the key check (bad
	// magic, bit flip, length mismatch, foreign key) and dropped, plus torn
	// segment tails found by Open. A rejected Get also counts a Miss.
	Corruptions int64
	// Entries is the current number of stored artifacts; Bytes their total
	// payload size.
	Entries int64
	Bytes   int64
}

func (s Stats) String() string {
	return fmt.Sprintf("disk hits %d, misses %d, writes %d, evictions %d, corruptions %d, entries %d (%d bytes)",
		s.Hits, s.Misses, s.Writes, s.Evictions, s.Corruptions, s.Entries, s.Bytes)
}

const (
	// tombMagic starts a tombstone record: the magic, then the 16-byte key.
	tombMagic = "DBRWDEL1"
	tombSize  = 24

	// Segment files are named seg-<16 hex digits>.log; the number orders
	// them.
	segPrefix = "seg-"
	segExt    = ".log"

	// compactFloor is the dead bytes tolerated beyond the live bytes before
	// a compaction, so a small store is not rewritten on every overwrite.
	compactFloor = 1 << 20
	// maxSegments is the number of segments, one per Open since the last
	// compaction, above which Open compacts regardless of dead bytes.
	maxSegments = 16
)

var errClosed = errors.New("diskcache: store closed")

// segment is one log file. An older segment is read-only and its size is
// what Open indexed; the own segment grows with every append.
type segment struct {
	f    *os.File
	path string
	size int64
}

type diskEntry struct {
	key   codecache.Key
	bytes int64    // payload bytes, counted against the byte bound
	seg   *segment // where the record is
	off   int64
	n     int64 // record length
}

// Store is the on-disk artifact store. All methods are safe for concurrent
// use. Reads go straight to the record without holding a lock; appends,
// tombstones and compactions serialize on one writer lock.
type Store struct {
	dir      string
	maxBytes int64

	// wmu serializes everything that writes to the directory: appends to
	// the own segment, tombstones, compaction and Close. It guards own,
	// segs, nextSeq and the own segment's size, and is taken before mu.
	wmu     sync.Mutex
	own     *segment   // nil once closed
	segs    []*segment // every segment held open, oldest first; own is last
	nextSeq uint64

	// mu guards the index: membership, LRU order, record locations and the
	// byte counts. A record location changes only under wmu as well.
	mu      sync.Mutex
	index   map[codecache.Key]*list.Element // of *diskEntry
	lru     *list.List                      // front = most recently used
	totalMu int64                           // payload bytes of indexed artifacts
	live    int64                           // record bytes of indexed artifacts
	closed  bool

	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	evictions   atomic.Int64
	corruptions atomic.Int64
}

// DefaultMaxBytes bounds the store when Open is given maxBytes <= 0.
const DefaultMaxBytes = 256 << 20

// Open creates (if necessary) and scans dir, rebuilding the artifact index
// from the segments present, and creates the store's own segment. Legacy
// <key>.art and *.tmp files are deleted. Record contents are NOT checksummed
// at open — corruption is detected (and the record dropped) on first Get,
// keeping restart cost to one pass over the record headers. maxBytes bounds
// the total payload bytes (<= 0 selects DefaultMaxBytes); if the scanned
// records already exceed it, the oldest are evicted immediately. If the
// scan leaves more dead bytes than the compaction rule allows, or more than
// maxSegments segments, Open compacts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		index:    make(map[codecache.Key]*list.Element),
		lru:      list.New(),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	var seqs []uint64
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if seq, ok := parseSegName(name); ok {
			seqs = append(seqs, seq)
		} else if strings.HasSuffix(name, ".art") || strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // the file-per-key layout
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s.nextSeq = seq + 1
		seg, err := openSegment(filepath.Join(dir, segName(seq)))
		if err != nil {
			continue // deleted meanwhile by another store's compaction
		}
		s.segs = append(s.segs, seg)
		s.scan(seg)
	}
	s.evictOver()

	own, err := s.createSegment()
	if err != nil {
		s.closeSegs()
		return nil, err
	}
	s.own = own
	s.segs = append(s.segs, own)
	if len(s.segs) > maxSegments || s.wantCompact() {
		s.compact() // on failure the store runs on the segments it has
	}
	return s, nil
}

func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segExt) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segExt) || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(segPrefix):len(segPrefix)+16], 16, 64)
	return seq, err == nil
}

func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{f: f, path: path, size: info.Size()}, nil
}

// createSegment creates the next segment file. Exclusive creation keeps two
// stores from ever sharing one. Caller holds wmu (or owns s exclusively).
func (s *Store) createSegment() (*segment, error) {
	for {
		path := filepath.Join(s.dir, segName(s.nextSeq))
		s.nextSeq++
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("diskcache: %w", err)
		}
		return &segment{f: f, path: path}, nil
	}
}

// scan indexes seg's records in order. It stops at the first record that
// runs past the end of the segment or does not start with a known magic,
// counting one corruption.
func (s *Store) scan(seg *segment) {
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, seg.size), 64<<10)
	var hdr [headerSize]byte
	var off int64
scan:
	for off < seg.size {
		// The reader ends at the segment's end, so a failed read is a
		// record cut short by it.
		if _, err := io.ReadFull(r, hdr[:8]); err != nil {
			break
		}
		var k codecache.Key
		switch string(hdr[:8]) {
		case tombMagic:
			if _, err := io.ReadFull(r, hdr[8:tombSize]); err != nil {
				break scan
			}
			copy(k[:], hdr[8:tombSize])
			if el, ok := s.index[k]; ok {
				s.unindex(el)
			}
			off += tombSize
		case magic:
			if _, err := io.ReadFull(r, hdr[8:]); err != nil {
				break scan
			}
			payload := int64(binary.LittleEndian.Uint32(hdr[32:36])) +
				int64(binary.LittleEndian.Uint32(hdr[36:40])) +
				int64(binary.LittleEndian.Uint32(hdr[40:44]))
			if _, err := r.Discard(int(payload)); err != nil {
				break scan
			}
			copy(k[:], hdr[16:32])
			s.place(k, seg, off, headerSize+payload, payload)
			off += headerSize + payload
		default:
			break scan
		}
	}
	if off < seg.size {
		s.corruptions.Add(1)
	}
}

// place points k at a record, superseding any earlier one, and marks k most
// recently used. Caller holds mu (or owns s exclusively).
func (s *Store) place(k codecache.Key, seg *segment, off, n, payload int64) {
	if el, ok := s.index[k]; ok {
		e := el.Value.(*diskEntry)
		s.totalMu += payload - e.bytes
		s.live += n - e.n
		e.bytes, e.seg, e.off, e.n = payload, seg, off, n
		s.lru.MoveToFront(el)
		return
	}
	s.index[k] = s.lru.PushFront(&diskEntry{key: k, bytes: payload, seg: seg, off: off, n: n})
	s.totalMu += payload
	s.live += n
}

// unindex drops an entry; its record becomes dead bytes. Caller holds mu.
func (s *Store) unindex(el *list.Element) {
	e := el.Value.(*diskEntry)
	s.lru.Remove(el)
	delete(s.index, e.key)
	s.totalMu -= e.bytes
	s.live -= e.n
}

// evictOver drops LRU entries until the byte bound holds. Their records stay
// in the log as dead bytes until a compaction. Caller holds mu.
func (s *Store) evictOver() {
	for s.totalMu > s.maxBytes && s.lru.Len() > 0 {
		s.unindex(s.lru.Back())
		s.evictions.Add(1)
	}
}

// wantCompact reports whether the dead bytes in the held segments exceed the
// live bytes plus compactFloor. Caller holds wmu and mu.
func (s *Store) wantCompact() bool {
	var disk int64
	for _, seg := range s.segs {
		disk += seg.size
	}
	return disk-s.live > s.live+compactFloor
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Get loads and verifies the artifact for k: one read of its record, then
// Decode and the key check. An unindexed key is a miss; a record that fails
// to read or verify is dropped, tombstoned, counted as a corruption, and
// reported as a miss — the caller recompiles and Put appends a good copy.
func (s *Store) Get(k codecache.Key) (*Artifact, bool) {
	for {
		s.mu.Lock()
		el, ok := s.index[k]
		if !ok || s.closed {
			s.mu.Unlock()
			s.misses.Add(1)
			return nil, false
		}
		s.lru.MoveToFront(el)
		e := el.Value.(*diskEntry)
		seg, off, n := e.seg, e.off, e.n
		s.mu.Unlock()

		buf := make([]byte, n)
		_, err := seg.f.ReadAt(buf, off)
		if err == nil {
			var got codecache.Key
			var a *Artifact
			if got, a, err = Decode(buf); err == nil && got == k {
				s.hits.Add(1)
				return a, true
			}
		}
		// A compaction or a newer Put may have moved the record (and a
		// compaction closed the old segment) between the lookup and the
		// read: then look again.
		if s.reject(k, seg, off) {
			s.misses.Add(1)
			return nil, false
		}
	}
}

// reject handles a record of k at (seg, off) that failed to read or verify.
// If k still points there, the record is damaged: it is dropped, tombstoned
// and counted, and reject reports true. It reports false when the entry has
// moved since, so the caller retries, and true without counting when k is
// gone or the store is closed.
func (s *Store) reject(k codecache.Key, seg *segment, off int64) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	el, ok := s.index[k]
	if !ok || s.closed {
		s.mu.Unlock()
		return true
	}
	if e := el.Value.(*diskEntry); e.seg != seg || e.off != off {
		s.mu.Unlock()
		return false
	}
	s.unindex(el)
	s.mu.Unlock()
	s.corruptions.Add(1)
	s.tombstone(k)
	return true
}

// Contains reports whether an artifact for k is indexed, without reading or
// validating it (a later Get may still reject it as corrupt).
func (s *Store) Contains(k codecache.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// Put persists the artifact for k by appending its record to the own
// segment, in one write to a file the store holds open. The index points at
// the record only once it is written, so a concurrent Get sees the old
// record or the new one, never a tear; a crash mid-append leaves a torn tail
// that the next Open drops. Writing past the byte bound evicts
// least-recently-used artifacts.
func (s *Store) Put(k codecache.Key, a *Artifact) error {
	rec := Encode(k, a)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	off, err := s.append(rec)
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.mu.Lock()
	s.place(k, s.own, off, int64(len(rec)), a.payloadSize())
	s.evictOver()
	s.mu.Unlock()
	s.maybeCompact()
	return nil
}

// append writes rec at the end of the own segment and returns its offset.
// A failed write does not advance the end, so the next append overwrites
// whatever part of rec reached the file. Caller holds wmu.
func (s *Store) append(rec []byte) (int64, error) {
	if s.own == nil {
		return 0, errClosed
	}
	off := s.own.size
	if _, err := s.own.f.WriteAt(rec, off); err != nil {
		return 0, fmt.Errorf("diskcache: %w", err)
	}
	s.own.size += int64(len(rec))
	return off, nil
}

// tombstone appends a tombstone for k, so that no record of k written before
// it is indexed again by a later Open. Caller holds wmu.
func (s *Store) tombstone(k codecache.Key) {
	var rec [tombSize]byte
	copy(rec[:8], tombMagic)
	copy(rec[8:], k[:])
	if _, err := s.append(rec[:]); err == nil {
		s.maybeCompact()
	}
}

// maybeCompact compacts when the dead bytes call for it. Caller holds wmu.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	want := s.wantCompact()
	s.mu.Unlock()
	if want {
		s.compact()
	}
}

// compact copies every live record, least recently used first, into a fresh
// segment, points the index at the copies, makes the fresh segment the own
// one, and closes and deletes every other held segment. Caller holds wmu (or
// owns s exclusively), so no record is added, dropped or moved meanwhile. A
// Get keeps reading the old copy until the index is repointed; one whose
// segment is closed under it finds the entry moved and reads the new copy.
// A record that can no longer be read is dropped and counted as a
// corruption. On a write error the fresh segment is deleted and the store
// stays on its old segments; a later write tries again.
func (s *Store) compact() error {
	seg, err := s.createSegment()
	if err != nil {
		return err
	}
	s.mu.Lock()
	live := make([]*diskEntry, 0, s.lru.Len())
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		live = append(live, el.Value.(*diskEntry))
	}
	s.mu.Unlock()
	offs := make([]int64, len(live))
	if err := copyRecords(seg, live, offs); err != nil {
		seg.f.Close()
		os.Remove(seg.path)
		return fmt.Errorf("diskcache: compaction: %w", err)
	}

	s.mu.Lock()
	for i, e := range live {
		if offs[i] < 0 {
			s.unindex(s.index[e.key])
			s.corruptions.Add(1)
			continue
		}
		e.seg, e.off = seg, offs[i]
	}
	s.mu.Unlock()
	old := s.segs
	s.own, s.segs = seg, []*segment{seg}
	for _, o := range old {
		o.f.Close()
		os.Remove(o.path)
	}
	return nil
}

// copyRecords writes the records of live one after another into the empty
// segment seg, setting offs[i] to where live[i] landed, or to -1 if its
// record could not be read.
func copyRecords(seg *segment, live []*diskEntry, offs []int64) error {
	w := bufio.NewWriterSize(seg.f, 256<<10)
	var buf []byte
	for i, e := range live {
		if int64(cap(buf)) < e.n {
			buf = make([]byte, e.n)
		}
		offs[i] = -1
		if _, err := e.seg.f.ReadAt(buf[:e.n], e.off); err != nil {
			continue
		}
		if _, err := w.Write(buf[:e.n]); err != nil {
			return err
		}
		offs[i] = seg.size
		seg.size += e.n
	}
	return w.Flush()
}

// Remove drops the artifact for k and appends a tombstone, reporting whether
// one was indexed. It is the invalidation hook: the engine calls it from the
// in-memory cache's remove hook so a key declared stale can never be
// resurrected from disk. The tombstone is written even for an unindexed key,
// since an evicted record of it may still be in the log.
func (s *Store) Remove(k codecache.Key) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	el, ok := s.index[k]
	if ok {
		s.unindex(el)
	}
	s.mu.Unlock()
	s.tombstone(k)
	return ok
}

// Close releases the store's files; an own segment that was never written
// to is deleted. Afterwards Get misses and Put fails. Records stay on disk
// for a later Open.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.own.size == 0 {
		os.Remove(s.own.path)
	}
	s.own = nil
	return s.closeSegs()
}

func (s *Store) closeSegs() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len returns the number of indexed artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := int64(s.lru.Len()), s.totalMu
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Evictions:   s.evictions.Load(),
		Corruptions: s.corruptions.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}
