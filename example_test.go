package dbrewllvm

import (
	"fmt"
	"os"
)

// StatsJSON marshals the compile counter plus the cache, disk, and tiering
// counters in one call — the payload served by dbrewd's /metrics endpoint.
// Disabled subsystems are omitted from the JSON, so "never enabled" and
// "enabled but idle" stay distinguishable, mirroring the (Stats, ok)
// accessors; the derived cache_hit_ratio appears only once the cache has
// seen at least one lookup (0/0 is omitted, not reported as zero).
func ExampleEngine_StatsJSON() {
	eng := NewEngine()

	// Nothing enabled: only the always-present compile counter.
	b, _ := eng.StatsJSON()
	fmt.Println(string(b))

	// With the specialization cache on, its zero counters appear — but no
	// hit ratio yet, since there have been no lookups.
	eng.EnableCache(16)
	b, _ = eng.StatsJSON()
	fmt.Println(string(b))
	// Output:
	// {"compiles":0}
	// {"compiles":0,"cache":{"Hits":0,"Misses":0,"Waits":0,"Evictions":0,"Entries":0}}
}

// CacheStats distinguishes "cache disabled" (zero Stats sentinel, ok ==
// false) from "cache enabled but idle" (zero Stats, ok == true). Branch on
// ok — never on the zero counters alone.
func ExampleEngine_CacheStats() {
	eng := NewEngine()

	// Disabled: the zero codecache.Stats is returned as a sentinel.
	if st, ok := eng.CacheStats(); !ok {
		fmt.Printf("disabled: ok=%v (sentinel stats: %v)\n", ok, st)
	}

	// Enabled but idle: also all-zero counters, but ok == true.
	eng.EnableCache(16)
	st, ok := eng.CacheStats()
	fmt.Printf("enabled:  ok=%v hits=%d misses=%d\n", ok, st.Hits, st.Misses)
	// Output:
	// disabled: ok=false (sentinel stats: hits 0, misses 0, inflight-waits 0, evictions 0, entries 0)
	// enabled:  ok=true hits=0 misses=0
}

// DiskStats follows the same sentinel contract as CacheStats: with the disk
// cache disabled it returns the zero diskcache.Stats and ok == false; after
// EnableDiskCache the same zero counters mean "enabled but idle". Branch on
// ok — never on the zero counters alone.
func ExampleEngine_DiskStats() {
	eng := NewEngine()

	// Disabled: the zero diskcache.Stats is returned as a sentinel.
	if st, ok := eng.DiskStats(); !ok {
		fmt.Printf("disabled: ok=%v (sentinel stats: %v)\n", ok, st)
	}

	// Enabled but idle: also all-zero counters, but ok == true.
	dir, err := os.MkdirTemp("", "dbrew-example-diskcache")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)
	if err := eng.EnableDiskCache(dir, 1<<20); err != nil {
		fmt.Println("enable:", err)
		return
	}
	st, ok := eng.DiskStats()
	fmt.Printf("enabled:  ok=%v hits=%d misses=%d writes=%d\n", ok, st.Hits, st.Misses, st.Writes)
	// Output:
	// disabled: ok=false (sentinel stats: disk hits 0, misses 0, writes 0, evictions 0, corruptions 0, entries 0 (0 bytes))
	// enabled:  ok=true hits=0 misses=0 writes=0
}
