package service

// Content-defined chunking for delta snapshots. A client in delta mode
// splits every region with a Gear-hash rolling chunker, ships chunk hashes
// plus only the payloads the server has not seen, and the server
// reconstructs the region bytes from its chunk store. The chunker is
// content-defined, not fixed-stride: an insertion early in a region shifts
// every later byte, but cut points re-synchronize on content, so only the
// chunks actually touched change identity. Both sides must agree on the cut
// points, so the gear table and the size bounds below are fixed protocol
// constants — never derive them from runtime state.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
)

const (
	// chunkMin and chunkMax bound every chunk; chunkMask sets the expected
	// chunk size (a cut fires when the rolling hash's low 12 bits are zero:
	// ~4 KiB average).
	chunkMin  = 1 << 10
	chunkMax  = 16 << 10
	chunkMask = 1<<12 - 1

	// defaultChunkStoreBytes bounds the server-side chunk store payload.
	defaultChunkStoreBytes = 64 << 20
)

// gearTable is the protocol's fixed byte→mixer table (splitmix64 over the
// byte value, fixed seed). Identical across every build by construction.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		t[i] = z
	}
	return t
}()

// splitChunks cuts data into content-defined chunks. Chunks concatenate
// back to data exactly; every chunk is ≤ chunkMax, and all but the last are
// ≥ min(chunkMin, remaining input).
func splitChunks(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := cutPoint(data)
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// cutPoint returns the length of the first chunk of data.
func cutPoint(data []byte) int {
	if len(data) <= chunkMin {
		return len(data)
	}
	limit := len(data)
	if limit > chunkMax {
		limit = chunkMax
	}
	var h uint64
	for i := 0; i < limit; i++ {
		h = h<<1 + gearTable[data[i]]
		if i >= chunkMin && h&chunkMask == 0 {
			return i + 1
		}
	}
	return limit
}

// chunkHash is the chunk identity: SHA-256 truncated to 16 bytes, hex — the
// same shape as a specialization cache key, and collision-resistant enough
// that the server can equate hash with content.
func chunkHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// chunkStore is the server-side chunk cache: hash → payload, bounded by
// total payload bytes with LRU eviction. Losing a chunk is always safe —
// the client re-ships it after a 412 missing-chunk reply.
type chunkStore struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	evictions int64
	lru       *list.List // of *chunkEntry, front = most recent
	idx       map[string]*list.Element
}

type chunkEntry struct {
	hash string
	data []byte
}

func newChunkStore(maxBytes int64) *chunkStore {
	if maxBytes <= 0 {
		maxBytes = defaultChunkStoreBytes
	}
	return &chunkStore{maxBytes: maxBytes, lru: list.New(), idx: make(map[string]*list.Element)}
}

// get returns the payload for hash, refreshing its LRU position.
func (cs *chunkStore) get(hash string) ([]byte, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	el, ok := cs.idx[hash]
	if !ok {
		return nil, false
	}
	cs.lru.MoveToFront(el)
	return el.Value.(*chunkEntry).data, true
}

// put inserts a verified payload, evicting least-recently-used chunks when
// the byte budget overflows. A chunk larger than the whole budget is simply
// not retained.
func (cs *chunkStore) put(hash string, data []byte) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if el, ok := cs.idx[hash]; ok {
		cs.lru.MoveToFront(el)
		return
	}
	if int64(len(data)) > cs.maxBytes {
		return
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	cs.idx[hash] = cs.lru.PushFront(&chunkEntry{hash: hash, data: owned})
	cs.bytes += int64(len(owned))
	for cs.bytes > cs.maxBytes {
		back := cs.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*chunkEntry)
		cs.lru.Remove(back)
		delete(cs.idx, e.hash)
		cs.bytes -= int64(len(e.data))
		cs.evictions++
	}
}

// stats reports (entries, payload bytes, evictions).
func (cs *chunkStore) stats() (entries int, bytes, evictions int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.lru.Len(), cs.bytes, cs.evictions
}

// missingChunksError is the 412 handshake: the request referenced chunks
// the store does not hold; the client re-sends with those payloads.
type missingChunksError struct {
	hashes []string
}

func (e *missingChunksError) Error() string {
	return fmt.Sprintf("request references %d chunks absent from the chunk store", len(e.hashes))
}

// placedRegion is what ensureRegions last verified or mapped at a region
// address: the chunk-hash list of the delta region that arrived there, and
// its size. Mapped bytes are never unmapped or rewritten by the service, so
// the record stays true for as long as the address is mapped.
type placedRegion struct {
	hashes []string
	size   int
}

// materializeRegions rewrites delta-form regions (chunk hash lists) into
// plain Data regions, ingesting any shipped payloads first. A region whose
// hash list equals the one last placed at its address takes the mapped bytes
// as its Data; any other is assembled from the chunk store. It returns
// *missingChunksError (the full missing set, so one retry suffices) when
// reconstruction is incomplete, or a plain error for malformed delta regions
// (both forms at once, payload/hash mismatch). A region assembled from
// chunks keeps its hash list for ensureRegions to record.
func (s *Service) materializeRegions(req *Request) error {
	delta := false
	for i := range req.Regions {
		rg := &req.Regions[i]
		if len(rg.Chunks) == 0 {
			continue
		}
		delta = true
		if len(rg.Data) > 0 {
			return fmt.Errorf("regions[%d] at %#x carries both data and chunks", i, rg.Addr)
		}
		// Ingest every shipped payload before assembling anything, so chunks
		// can be referenced by any region of the same request.
		for j, ch := range rg.Chunks {
			if len(ch.Data) == 0 {
				continue
			}
			if chunkHash(ch.Data) != ch.Hash {
				return fmt.Errorf("regions[%d].chunks[%d]: payload does not hash to %s", i, j, ch.Hash)
			}
			s.chunks.put(ch.Hash, ch.Data)
		}
	}
	if !delta {
		return nil
	}
	s.deltaRequests.Add(1)

	// Regions already placed with the same chunks need neither the store
	// nor assembly: the mapped bytes are the region.
	var saved int64
	s.regionMu.Lock()
	for i := range req.Regions {
		rg := &req.Regions[i]
		p, ok := s.placed[rg.Addr]
		if len(rg.Chunks) == 0 || !ok ||
			!slices.EqualFunc(p.hashes, rg.Chunks, func(h string, ch Chunk) bool { return h == ch.Hash }) {
			continue
		}
		view, err := s.eng.Mem.Bytes(rg.Addr, p.size)
		if err != nil {
			continue
		}
		saved += int64(p.size)
		for _, ch := range rg.Chunks {
			saved -= int64(len(ch.Data))
		}
		rg.Data, rg.Chunks = view, nil
	}
	s.regionMu.Unlock()

	// Presence pass: fetch every chunk before assembling any region, so the
	// complete missing set goes out in one 412 and a rejected request leaves
	// the savings counters untouched. Stored payloads are never mutated, so
	// the fetched slices stay valid even if the store evicts them meanwhile.
	parts := make([][][]byte, len(req.Regions))
	var missing []string
	seen := make(map[string]bool)
	for i, rg := range req.Regions {
		parts[i] = make([][]byte, len(rg.Chunks))
		for j, ch := range rg.Chunks {
			data, ok := s.chunks.get(ch.Hash)
			if !ok && !seen[ch.Hash] {
				seen[ch.Hash] = true
				missing = append(missing, ch.Hash)
			}
			parts[i][j] = data
		}
	}
	if len(missing) > 0 {
		s.deltaMisses.Add(1)
		return &missingChunksError{hashes: missing}
	}

	for i := range req.Regions {
		rg := &req.Regions[i]
		if len(rg.Chunks) == 0 {
			continue
		}
		size := 0
		for _, data := range parts[i] {
			size += len(data)
		}
		buf := make([]byte, 0, size)
		rg.hashes = make([]string, len(rg.Chunks))
		for j, ch := range rg.Chunks {
			if len(ch.Data) == 0 {
				saved += int64(len(parts[i][j]))
			}
			buf = append(buf, parts[i][j]...)
			rg.hashes[j] = ch.Hash
		}
		rg.Data, rg.Chunks = buf, nil
	}
	s.deltaBytesSaved.Add(saved)
	return nil
}
