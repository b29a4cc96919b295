package main

import (
	"sort"
	"time"
)

// batchLayerMetrics are the traced batch replay's per-layer figures;
// serve-remote reports them as 0 because it runs none of these layers
// itself (its server-side decode shows in the atcserve stages).
var batchLayerMetrics = map[string]string{
	"histogram.ns_per_addr":           "ns",
	"translate.ns_per_addr":           "ns",
	"phase.match_ns_per_interval":     "ns",
	"phase.imitation_ratio":           "ratio",
	"phase.prune_ratio":               "ratio",
	"bytesort.encode_ns_per_addr":     "ns",
	"bytesort.decode_ns_per_addr":     "ns",
	"bwt.forward_ns_per_byte":         "ns",
	"bwt.inverse_ns_per_byte":         "ns",
	"mtf.encode_ns_per_byte":          "ns",
	"mtf.decode_ns_per_byte":          "ns",
	"huffman.encode_ns_per_byte":      "ns",
	"huffman.decode_ns_per_byte":      "ns",
	"bsc.compress_ns_per_byte":        "ns",
	"bsc.decompress_ns_per_byte":      "ns",
	"bsc.self_share":                  "ratio",
	"bsc.out_bits_per_addr":           "bits",
	"store.write_ns_per_byte":         "ns",
	"store.read_ns_per_byte":          "ns",
	"core.encode_parallel_efficiency": "ratio",
	"encode.backend_share":            "ratio",
	"encode.residual_ratio":           "ratio",
	"decode.residual_ratio":           "ratio",
	"trace.overhead_ratio":            "ratio",
	"lossy.miss_ratio_error":          "ratio",
}

// serveLayerMetrics are the traced serve run's figures; the batch
// workloads report them as 0, since they use no chunk cache, remote
// store, server or load generator.
var serveLayerMetrics = map[string]string{
	"remote.gets_per_req":          "count",
	"remote.bytes_per_req":         "bytes",
	"remote.prefetch_useful_ratio": "ratio",
	"remote.retries":               "count",
	"chunkcache.hit_ratio":         "ratio",
	"chunkcache.evictions_per_req": "count",
	"chunkcache.resident_mb":       "MiB",
	"atcserve.wait_p50_ms":         "ms",
	"atcserve.wait_p99_ms":         "ms",
	"atcserve.fetch_p50_ms":        "ms",
	"atcserve.fetch_p99_ms":        "ms",
	"atcserve.decompress_p50_ms":   "ms",
	"atcserve.decompress_p99_ms":   "ms",
	"atcserve.translate_p50_ms":    "ms",
	"atcserve.translate_p99_ms":    "ms",
	"atcserve.deliver_p50_ms":      "ms",
	"atcserve.deliver_p99_ms":      "ms",
	"atcserve.index_us":            "us",
	"atcserve.throttled":           "count",
	"loadgen.late_p99_ms":          "ms",
	"loadgen.client_overhead_ms":   "ms",
}

func setZeros(rep *report, m map[string]string) {
	for name, unit := range m {
		rep.set(name, unit, 0)
	}
}

// serveLayers derives the serve run's per-layer figures: server stage
// percentiles from the ATC-Trace headers of traced requests, counter
// deltas from /metrics, and the load generator's own lateness and
// overhead.
func serveLayers(rep *report, outs []outcome, before, after metrics, reqs float64) {
	delta := func(name string, series ...string) float64 {
		return after.sum(name, series...) - before.sum(name, series...)
	}
	var stages [6][]float64
	var late, overhead []float64
	for _, o := range outs {
		late = append(late, ms(o.late))
		if !o.hasTrace {
			continue
		}
		var sum time.Duration
		for i, d := range o.stages {
			stages[i] = append(stages[i], ms(d))
			sum += d
		}
		overhead = append(overhead, ms(o.client-sum))
	}
	for i, name := range stageNames {
		sort.Float64s(stages[i])
		if name == "index" {
			rep.set("atcserve.index_us", "us", 1000*percentile(stages[i], 0.5))
			continue
		}
		q := tailQuantile(len(stages[i]))
		rep.set("atcserve."+name+"_p50_ms", "ms", percentile(stages[i], 0.5))
		rep.set("atcserve."+name+"_p99_ms", "ms", percentile(stages[i], q))
	}
	rep.note("server stages from %d traced requests (whole windows; a traced response ignores Range)", len(stages[0]))
	rep.set("atcserve.throttled", "count", delta("atc_http_throttled_total"))
	hits, loads := delta("atc_chunk_cache_hits_total"), delta("atc_chunk_cache_loads_total")
	rep.set("chunkcache.hit_ratio", "ratio", ratio(hits, hits+loads))
	rep.set("chunkcache.evictions_per_req", "count", delta("atc_chunk_cache_evictions_total")/reqs)
	rep.set("chunkcache.resident_mb", "MiB", after.sum("atc_chunk_cache_bytes")/(1<<20))
	rep.set("remote.gets_per_req", "count", delta("atc_remote_fetches_total")/reqs)
	rep.set("remote.bytes_per_req", "bytes", delta("atc_remote_fetch_bytes_total")/reqs)
	useful, wasted := delta("atc_remote_prefetch_total", `result="hit"`), delta("atc_remote_prefetch_total", `result="wasted"`)
	rep.set("remote.prefetch_useful_ratio", "ratio", ratio(useful, useful+wasted))
	rep.set("remote.retries", "count", delta("atc_remote_retries_total"))
	sort.Float64s(late)
	rep.set("loadgen.late_p99_ms", "ms", percentile(late, tailQuantile(len(late))))
	rep.set("loadgen.client_overhead_ms", "ms", median(overhead))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
