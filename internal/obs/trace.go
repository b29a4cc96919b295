package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of serving a decode request. The order here
// is the order stages run in; it is also the order they render in the
// ATC-Trace header and the JSON summary.
type Stage uint8

const (
	// StageWait is admission wait: time spent acquiring a pooled reader.
	StageWait Stage = iota
	// StageIndex is the chunk-index walk locating spans for the range.
	StageIndex
	// StageFetch is store/remote blob read time (I/O under decompress).
	StageFetch
	// StageDecompress is backend decompression of chunk blobs, net of
	// fetch time.
	StageDecompress
	// StageTranslate is imitation translation (ApplySlice) on lossy
	// records, timed for every copy of an imitation out of its source
	// chunk.
	StageTranslate
	// StageDeliver is copying decoded addresses out: the copy out of a
	// materialized chunk in core plus response serialization in the
	// server.
	StageDeliver

	// NumStages is the number of Stage values; usable as an array length.
	NumStages
)

var stageNames = [NumStages]string{
	"wait", "index", "fetch", "decompress", "translate", "deliver",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Trace accumulates per-stage wall time and chunk-touch counts for one
// decode request. Add/AddNS may be called from concurrent goroutines; a
// Trace is attached to a Decompressor via SetTrace for the duration of
// one request and read once the request is done. The zero value is ready
// to use.
type Trace struct {
	ns         [NumStages]atomic.Int64
	chunkLoads atomic.Int64
	cacheHits  atomic.Int64
}

// Add accumulates d into stage s.
//
//atc:hotpath
func (t *Trace) Add(s Stage, d time.Duration) { t.ns[s].Add(int64(d)) }

// AddNS accumulates ns nanoseconds into stage s.
//
//atc:hotpath
func (t *Trace) AddNS(s Stage, ns int64) { t.ns[s].Add(ns) }

// ChunkLoad records one chunk blob read and decompressed for this
// request.
//
//atc:hotpath
func (t *Trace) ChunkLoad() { t.chunkLoads.Add(1) }

// CacheHit records one chunk served from a chunk cache for this request.
//
//atc:hotpath
func (t *Trace) CacheHit() { t.cacheHits.Add(1) }

// StageNS returns the accumulated nanoseconds for stage s.
func (t *Trace) StageNS(s Stage) int64 { return t.ns[s].Load() }

// ChunkLoads returns the number of chunk blobs loaded.
func (t *Trace) ChunkLoads() int64 { return t.chunkLoads.Load() }

// CacheHits returns the number of chunk-cache hits.
func (t *Trace) CacheHits() int64 { return t.cacheHits.Load() }

// TotalNS returns the sum over all stages. Stages are timed sections of
// one request, so the total is bounded by the request's wall time.
func (t *Trace) TotalNS() int64 {
	var sum int64
	for s := Stage(0); s < NumStages; s++ {
		sum += t.ns[s].Load()
	}
	return sum
}

// Header renders the compact ATC-Trace response-header summary, e.g.
//
//	wait=12µs index=3µs fetch=1.2ms decompress=8.4ms translate=0s deliver=410µs chunks=3 hits=1
//
// Every stage is present (zero stages render as 0s) so the header shape
// is stable for log scrapers.
func (t *Trace) Header() string {
	var b strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(stageNames[s])
		b.WriteByte('=')
		b.WriteString(time.Duration(t.ns[s].Load()).String())
	}
	b.WriteString(" chunks=")
	b.WriteString(strconv.FormatInt(t.chunkLoads.Load(), 10))
	b.WriteString(" hits=")
	b.WriteString(strconv.FormatInt(t.cacheHits.Load(), 10))
	return b.String()
}

// StageTiming is one stage's accumulated time in a TraceSummary.
type StageTiming struct {
	Stage string `json:"stage"`
	NS    int64  `json:"ns"`
}

// TraceSummary is the JSON form of a Trace, embedded in ?trace=1
// responses. All stages are present, in execution order.
type TraceSummary struct {
	Stages     []StageTiming `json:"stages"`
	ChunkLoads int64         `json:"chunkLoads"`
	CacheHits  int64         `json:"cacheHits"`
	TotalNS    int64         `json:"totalNs"`
}

// Summary snapshots the trace for JSON serialization.
func (t *Trace) Summary() TraceSummary {
	s := TraceSummary{
		Stages:     make([]StageTiming, NumStages),
		ChunkLoads: t.chunkLoads.Load(),
		CacheHits:  t.cacheHits.Load(),
	}
	for st := Stage(0); st < NumStages; st++ {
		ns := t.ns[st].Load()
		s.Stages[st] = StageTiming{Stage: stageNames[st], NS: ns}
		s.TotalNS += ns
	}
	return s
}
