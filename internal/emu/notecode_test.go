package emu

import "testing"

// TestNoteCodeFlagsOverlappingRegions: translating a block watches exactly
// the regions that overlap its byte range — a range across two adjacent
// regions, ranges that only touch a region's edges, and empty regions,
// including one mapped at the start of a region already present.
func TestNoteCodeFlagsOverlappingRegions(t *testing.T) {
	type span struct{ start, size uint64 }
	cases := []struct {
		name       string
		regions    []span
		start, end uint64
	}{
		{"spans two adjacent", []span{{0x1000, 0x100}, {0x1100, 0x100}, {0x1300, 0x100}}, 0x10f0, 0x1110},
		{"touches an end and a start", []span{{0x1000, 0x100}, {0x1200, 0x100}, {0x1400, 0x100}}, 0x1100, 0x1200},
		{"last byte of a region", []span{{0x1000, 0x100}, {0x1200, 0x100}}, 0x10ff, 0x1100},
		{"first byte of a region", []span{{0x1000, 0x100}, {0x1200, 0x100}}, 0x1200, 0x1201},
		{"gap before a region", []span{{0x1000, 0x100}, {0x1400, 0x100}}, 0x13f0, 0x1400},
		{"empty region inside the range", []span{{0x1000, 0x100}, {0x2800, 0}, {0x3000, 0x10}}, 0x27f0, 0x2810},
		{"empty region at the range start", []span{{0x1000, 0x100}, {0x2800, 0}, {0x3000, 0x10}}, 0x2800, 0x2810},
		{"empty region mapped at a region's start", []span{{0x2000, 0x80}, {0x2000, 0}, {0x3000, 0x10}}, 0x2010, 0x2018},
		{"empty region at a region's end", []span{{0x2000, 0x80}, {0x2080, 0}, {0x2080, 0x10}}, 0x2070, 0x2088},
	}
	for _, c := range cases {
		mem := NewMemory(0x100000)
		for _, r := range c.regions {
			if _, err := mem.Map(r.start, int(r.size), "r"); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		mem.noteCode(c.start, c.end)
		for _, r := range mem.Regions() {
			want := c.start < r.End() && r.Start < c.end
			if r.Watched() != want {
				t.Errorf("%s: region [%#x,%#x) watched = %v, want %v", c.name, r.Start, r.End(), r.Watched(), want)
			}
			if len(r.Data) > 0 && mem.FindRegion(r.Start+1, 1) != r {
				t.Errorf("%s: region [%#x,%#x) not found", c.name, r.Start, r.End())
			}
		}
	}
}
