package diskcache

import "repro/internal/trace"

// RegisterMetrics exports the store counters into reg under the given
// metric-name prefix (e.g. "dbrew_diskcache"). snapshot is polled on every
// scrape; when it reports ok == false (disk cache disabled) every series
// reads zero, matching the codecache registration contract.
func RegisterMetrics(reg *trace.Registry, prefix string, snapshot func() (Stats, bool)) {
	grab := func() Stats {
		st, ok := snapshot()
		if !ok {
			return Stats{}
		}
		return st
	}
	counter := func(name, help string, field func(Stats) int64) {
		reg.Counter(prefix+"_"+name, help, func() float64 {
			return float64(field(grab()))
		})
	}
	counter("hits_total", "Artifact reads served from a valid disk record.",
		func(s Stats) int64 { return s.Hits })
	counter("misses_total", "Artifact reads that found no valid record.",
		func(s Stats) int64 { return s.Misses })
	counter("writes_total", "Artifacts persisted to disk.",
		func(s Stats) int64 { return s.Writes })
	counter("evictions_total", "Artifacts dropped by the byte-capacity bound.",
		func(s Stats) int64 { return s.Evictions })
	counter("corruptions_total", "Artifact records rejected by checksum/structure validation and dropped.",
		func(s Stats) int64 { return s.Corruptions })
	reg.Gauge(prefix+"_entries", "Artifacts currently stored on disk.",
		func() float64 { return float64(grab().Entries) })
	reg.Gauge(prefix+"_bytes", "Total payload bytes currently stored on disk.",
		func() float64 { return float64(grab().Bytes) })
}
