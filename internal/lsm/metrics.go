package lsm

import (
	"fmt"

	"adcache/internal/metrics"
)

// dbMetrics holds the engine's hot-path histograms. Latencies are recorded
// in nanoseconds (the `_nanos` suffix drives duration formatting in summary
// tables); write-group size is a plain magnitude.
type dbMetrics struct {
	getNanos        *metrics.Histogram
	scanNanos       *metrics.Histogram
	commitNanos     *metrics.Histogram
	commitWait      *metrics.Histogram
	stallNanos      *metrics.Histogram
	flushNanos      *metrics.Histogram
	compactNanos    *metrics.Histogram
	subcompactNanos *metrics.Histogram
	writeGroupOps   *metrics.Histogram
}

// registerMetrics publishes the engine's observability surface into reg:
// latency histograms for the hot paths, counter bridges over the engine's
// cumulative counters, and gauges over live tree shape. Called once from
// Open; scrape-time funcs take d.mu themselves, so they must only run
// outside engine callbacks (HTTP scrape or tool dumps), which is the only
// way the registry is exposed.
func (d *DB) registerMetrics(reg *metrics.Registry) {
	d.metrics = dbMetrics{
		getNanos:        reg.Histogram("lsm_get_nanos", "point-lookup latency"),
		scanNanos:       reg.Histogram("lsm_scan_nanos", "range-scan latency"),
		commitNanos:     reg.Histogram("lsm_commit_nanos", "write commit latency including group wait"),
		commitWait:      reg.Histogram("lsm_commit_wait_nanos", "time spent waiting to join or lead a write group"),
		stallNanos:      reg.Histogram("lsm_stall_nanos", "write-stall time per stalled commit (backpressure)"),
		flushNanos:      reg.Histogram("lsm_flush_nanos", "memtable flush duration"),
		compactNanos:    reg.Histogram("lsm_compact_nanos", "compaction duration"),
		subcompactNanos: reg.Histogram("lsm_subcompact_nanos", "per-subcompaction shard merge duration"),
		writeGroupOps:   reg.Histogram("lsm_write_group_ops", "operations coalesced per write group"),
	}

	counters := []struct {
		name, help string
		fn         func(m Metrics) int64
	}{
		{"lsm_flushes_total", "memtable flushes", func(m Metrics) int64 { return m.Flushes }},
		{"lsm_compactions_total", "compactions run", func(m Metrics) int64 { return m.Compactions }},
		{"lsm_subcompactions_total", "subcompaction shard merges executed", func(m Metrics) int64 { return m.Subcompactions }},
		{"lsm_stall_slowdowns_total", "write slowdown stalls", func(m Metrics) int64 { return m.StallSlowdowns }},
		{"lsm_stall_stops_total", "write stop stalls", func(m Metrics) int64 { return m.StallStops }},
		{"lsm_write_groups_total", "write groups committed", func(m Metrics) int64 { return m.WriteGroups }},
		{"lsm_flushed_bytes_total", "bytes written by flushes", func(m Metrics) int64 { return m.FlushedBytes }},
		{"lsm_compacted_bytes_total", "bytes read as compaction inputs", func(m Metrics) int64 { return m.CompactedBytes }},
		{"lsm_compaction_out_bytes_total", "bytes written as compaction outputs", func(m Metrics) int64 { return m.CompactionOutBytes }},
		{"lsm_user_bytes_total", "user key+value bytes accepted", func(m Metrics) int64 { return m.UserBytes }},
		{"lsm_bg_retries_total", "background flush/compaction retry attempts", func(m Metrics) int64 { return m.BgRetries }},
		{"lsm_resumes_total", "recoveries from read-only degraded mode", func(m Metrics) int64 { return m.Resumes }},
		{"lsm_wal_remove_errors_total", "non-fatal failures deleting retired WAL files", func(m Metrics) int64 { return m.WALRemoveErrors }},
		{"lsm_bg_io_stall_nanos_total", "time background writers spent throttled by the I/O rate limit", func(m Metrics) int64 { return m.BgIOStallNanos }},
	}
	for _, c := range counters {
		fn := c.fn
		reg.CounterFunc(c.name, c.help, func() int64 { return fn(d.Metrics()) })
	}
	reg.CounterFunc("lsm_query_block_reads_total",
		"SST blocks read from disk by queries (the paper's SST-reads metric)",
		d.QueryBlockReads)
	reg.CounterFunc("lsm_query_block_hits_total",
		"block-cache hits on the query path", d.QueryBlockHits)

	gauges := []struct {
		name, help string
		fn         func(m Metrics) float64
	}{
		{"lsm_memtable_bytes", "active memtable size", func(m Metrics) float64 { return float64(m.MemTableBytes) }},
		{"lsm_imm_memtables", "sealed memtables awaiting flush", func(m Metrics) float64 { return float64(m.ImmMemTables) }},
		{"lsm_imm_memtable_bytes", "bytes pinned by sealed memtables awaiting flush", func(m Metrics) float64 { return float64(m.ImmMemTableBytes) }},
		{"lsm_memtable_budget_bytes", "dynamic unified-memory memtable budget (0 = static sizing)", func(m Metrics) float64 { return float64(m.MemTableBudget) }},
		{"lsm_memtable_target_bytes", "flush threshold currently in force for the active memtable", func(m Metrics) float64 { return float64(m.MemTableTarget) }},
		{"lsm_sorted_runs", "sorted runs in the tree", func(m Metrics) float64 { return float64(m.SortedRuns) }},
		{"lsm_total_entries", "entries across all SSTables", func(m Metrics) float64 { return float64(m.TotalEntries) }},
		{"lsm_total_bytes", "bytes across all SSTables", func(m Metrics) float64 { return float64(m.TotalBytes) }},
		{"lsm_write_amplification", "SSTable bytes written per user byte", Metrics.WriteAmplification},
		{"lsm_bg_state", "error-handler mode (0 healthy, 1 retrying, 2 read-only)", func(m Metrics) float64 { return float64(m.bgStateNum) }},
		{"lsm_open_files", "open engine file handles", func(m Metrics) float64 { return float64(m.OpenFiles) }},
		{"lsm_open_tables", "open SSTable readers", func(m Metrics) float64 { return float64(m.OpenTables) }},
		{"lsm_mapped_table_bytes", "SSTable bytes held memory-mapped by open readers", func(m Metrics) float64 { return float64(m.MappedTableBytes) }},
	}
	for _, g := range gauges {
		fn := g.fn
		reg.GaugeFunc(g.name, g.help, func() float64 { return fn(d.Metrics()) })
	}
	for level := 0; level < d.opts.NumLevels; level++ {
		l := level
		// Per-level write-amplification counters: input bytes drawn from the
		// level vs output bytes written into it by compactions.
		reg.CounterFunc(fmt.Sprintf("lsm_compaction_input_bytes_total{level=%q}", fmt.Sprint(l)),
			"compaction input bytes read from this level", func() int64 {
				d.mu.RLock()
				defer d.mu.RUnlock()
				return d.levelCompactIn[l]
			})
		reg.CounterFunc(fmt.Sprintf("lsm_compaction_output_bytes_total{level=%q}", fmt.Sprint(l)),
			"compaction output bytes written into this level", func() int64 {
				d.mu.RLock()
				defer d.mu.RUnlock()
				return d.levelCompactOut[l]
			})
		reg.GaugeFunc(fmt.Sprintf("lsm_level_files{level=%q}", fmt.Sprint(l)),
			"SSTable files per level", func() float64 {
				d.mu.RLock()
				defer d.mu.RUnlock()
				return float64(len(d.version.Levels[l]))
			})
		reg.GaugeFunc(fmt.Sprintf("lsm_level_bytes{level=%q}", fmt.Sprint(l)),
			"SSTable bytes per level", func() float64 {
				d.mu.RLock()
				defer d.mu.RUnlock()
				return float64(d.version.SizeOfLevel(l))
			})
	}
}

// MetricsRegistry returns the registry this DB publishes into.
func (d *DB) MetricsRegistry() *metrics.Registry { return d.reg }
