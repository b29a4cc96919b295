package core

import (
	"io"
	"time"

	"atc/internal/obs"
)

// Registry-backed decode/encode metrics on obs.Default(). They are
// process-wide: every Decompressor and Compressor feeds the same series.
// Per-instance counters (Decompressor.ChunkReads, TraceChunkCache.Stats)
// stay authoritative for their accessors — the registry is the
// operational view layered on top, not a replacement.
var (
	metChunkLoads = obs.Default().Counter("atc_decode_chunk_loads_total",
		"chunk blobs read and decompressed (chunk-cache misses), all readers")
	metChunkCacheHits = obs.Default().Counter("atc_decode_chunk_cache_hits_total",
		"chunk loads served from a private or shared chunk cache")
	metChunkCacheEvict = obs.Default().Counter("atc_decode_chunk_cache_evictions_total",
		"chunks evicted from private or shared chunk caches")
	metChunksStreamed = obs.Default().Counter("atc_decode_chunks_streamed_total",
		"lossy chunks stream-decoded straight into batch buffers (never an imitation source, so never materialized or cached)")

	metEncodeChunks = obs.Default().Counter("atc_encode_chunks_total",
		"chunks bytesorted, compressed and written")
	metEncodeImit = obs.Default().Counter("atc_encode_imitations_total",
		"intervals stored as imitation records instead of chunks")
	metEncodeQueue = obs.Default().Gauge("atc_encode_queue_depth",
		"chunk-compression jobs enqueued and not yet picked up by a worker")
	metCompressSec = obs.Default().Histogram("atc_encode_chunk_compress_seconds",
		"per-chunk bytesort+compress+write time", obs.DurationBuckets)
)

// metDecodeStage holds one histogram per decode stage
// (atc_decode_stage_seconds{stage=...}). Fetch and decompress are
// observed once for every chunk read, streamed or materialized, when its
// reader is released; translate for every imitation copy-out (copyTo),
// whether a pipeline batch, an inline batch or a range window. Wait,
// index and deliver are request-scoped — they land here only through a
// traced request's recorder path (atcserve observes wait separately as
// pool-wait).
var metDecodeStage = func() [obs.NumStages]*obs.Histogram {
	var hs [obs.NumStages]*obs.Histogram
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		hs[s] = obs.Default().Histogram("atc_decode_stage_seconds",
			"decode stage wall time", obs.DurationBuckets,
			obs.Label{Key: "stage", Value: s.String()})
	}
	return hs
}()

// observeFill splits the time since start — one fill of a span reader's
// stream, which read blob bytes for r.tf.ns-fetched nanoseconds — into
// fetch and decompress, accumulating both for the chunk's stage
// histograms (observed once, at release) and adding them to the request
// trace, if one is attached. The trace gets every fill as it happens
// because a parked legacy reader outlives the request that opened it.
func (r *spanReader) observeFill(start time.Time, fetched int64) {
	fetchNS := r.tf.ns - fetched
	decNS := max(time.Since(start).Nanoseconds()-fetchNS, 0)
	r.fetchNS += fetchNS
	r.decNS += decNS
	if tr := r.d.traceRec; tr != nil {
		tr.AddNS(obs.StageFetch, fetchNS)
		tr.AddNS(obs.StageDecompress, decNS)
	}
}

// observeTranslate records the translation time of one imitation
// copy-out.
func (d *Decompressor) observeTranslate(dur time.Duration) {
	metDecodeStage[obs.StageTranslate].ObserveDuration(dur)
	if tr := d.traceRec; tr != nil {
		tr.Add(obs.StageTranslate, dur)
	}
}

// timedReader accumulates time spent inside the wrapped reader's Read —
// isolating store/remote fetch time from the decompression consuming it.
// One lives in each span reader, read by one goroutine at a time, so no
// synchronization is needed.
type timedReader struct {
	r  io.Reader
	ns int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.ns += time.Since(start).Nanoseconds()
	return n, err
}
