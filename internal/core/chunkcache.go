package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"atc/internal/obs"
)

// SharedChunkCacheBytes is a byte-budgeted cache of decompressed chunks
// ([]uint64 address slices). One instance can serve every trace a
// process reads, keyed by (trace, chunkID), so a replica holding
// thousands of traces caches under a single memory cap. Residency is
// accounted in decoded bytes (len(addrs)*8 per chunk — chunk sizes vary
// wildly with IntervalLen/SegmentAddrs across traces, so counting entries
// would not bound memory) and eviction is LRU by bytes. It is safe for
// concurrent use and deduplicates concurrent misses of one chunk onto a
// single load (singleflight).
//
// Cached slices are shared, immutable data: neither the cache nor its
// callers may mutate a slice after it is inserted, so an eviction never
// invalidates a copy-out in progress.
//
// Readers never see this type directly: ForTrace returns a lightweight
// per-trace view, injected per Decompressor (DecodeOptions.ChunkCache).
type SharedChunkCacheBytes struct {
	budget int64

	mu       sync.Mutex
	bytes    int64 // resident decoded bytes
	ll       list.List
	m        map[byteCacheKey]*list.Element
	inflight map[byteCacheKey]*chunkFlight
	views    map[string]*TraceChunkCache

	hits      atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64
}

// byteCacheKey identifies one chunk of one trace.
type byteCacheKey struct {
	trace string
	id    int
}

// chunkFlight is one in-progress chunk load; done closes once addrs/err
// are set.
type chunkFlight struct {
	done  chan struct{}
	addrs []uint64
	err   error
}

// byteCacheEntry is one resident chunk.
type byteCacheEntry struct {
	key   byteCacheKey
	addrs []uint64
	size  int64
	view  *TraceChunkCache
}

// NewSharedChunkCacheBytes returns a byte-budgeted cache holding at most
// budget decoded bytes (minimum one address). A chunk alone larger than
// the whole budget is never admitted: its load still succeeds, the result
// just is not retained.
func NewSharedChunkCacheBytes(budget int64) *SharedChunkCacheBytes {
	if budget < 8 {
		budget = 8
	}
	return &SharedChunkCacheBytes{
		budget:   budget,
		m:        map[byteCacheKey]*list.Element{},
		inflight: map[byteCacheKey]*chunkFlight{},
		views:    map[string]*TraceChunkCache{},
	}
}

// Budget reports the configured byte budget.
func (c *SharedChunkCacheBytes) Budget() int64 { return c.budget }

// ForTrace returns the cache's view for one trace, whose chunk IDs are
// namespaced by the trace name, so many traces share the one budget
// without ID collisions. Repeated calls with one name return the same
// view.
func (c *SharedChunkCacheBytes) ForTrace(trace string) *TraceChunkCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.views[trace]; ok {
		return v
	}
	v := &TraceChunkCache{c: c, trace: trace}
	c.views[trace] = v
	return v
}

// putLocked inserts or refreshes an entry and evicts back to budget.
func (c *SharedChunkCacheBytes) putLocked(v *TraceChunkCache, key byteCacheKey, addrs []uint64) {
	size := int64(len(addrs)) * 8
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		ent := e.Value.(*byteCacheEntry)
		c.bytes += size - ent.size
		ent.view.residentBytes.Add(size - ent.size)
		ent.addrs, ent.size = addrs, size
		c.evictLocked()
		return
	}
	if size > c.budget {
		return
	}
	c.m[key] = c.ll.PushFront(&byteCacheEntry{key: key, addrs: addrs, size: size, view: v})
	c.bytes += size
	v.residentBytes.Add(size)
	v.residentChunks.Add(1)
	c.evictLocked()
}

// evictLocked removes entries from the LRU end until resident bytes fit
// the budget.
func (c *SharedChunkCacheBytes) evictLocked() {
	for c.bytes > c.budget {
		e := c.ll.Back()
		ent := e.Value.(*byteCacheEntry)
		delete(c.m, ent.key)
		c.ll.Remove(e)
		c.bytes -= ent.size
		ent.view.residentBytes.Add(-ent.size)
		ent.view.residentChunks.Add(-1)
		ent.view.evictions.Add(1)
		c.evictions.Add(1)
		metChunkCacheEvict.Inc()
	}
}

// SharedChunkCacheBytesStats counts a SharedChunkCacheBytes's traffic
// across every trace.
type SharedChunkCacheBytesStats struct {
	Hits      int64
	Loads     int64
	Evictions int64
	// ResidentBytes is the decoded bytes currently cached (≤ Budget).
	ResidentBytes  int64
	ResidentChunks int
	Budget         int64
}

// Stats reports process-wide counters and occupancy.
func (c *SharedChunkCacheBytes) Stats() SharedChunkCacheBytesStats {
	c.mu.Lock()
	bytes, chunks := c.bytes, len(c.m)
	c.mu.Unlock()
	return SharedChunkCacheBytesStats{
		Hits:           c.hits.Load(),
		Loads:          c.loads.Load(),
		Evictions:      c.evictions.Load(),
		ResidentBytes:  bytes,
		ResidentChunks: chunks,
		Budget:         c.budget,
	}
}

// Register exposes the cache's process-wide occupancy on r: the
// configured budget and the resident decoded bytes across every trace.
// Per-trace traffic is registered by the serving tier from the per-view
// Stats, behind its cardinality cap.
func (c *SharedChunkCacheBytes) Register(r *obs.Registry, labels ...obs.Label) {
	r.GaugeFunc("atc_chunk_cache_budget_bytes",
		"configured byte budget of the process-wide chunk cache",
		func() int64 { return c.budget }, labels...)
	r.GaugeFunc("atc_chunk_cache_bytes",
		"decoded bytes resident in the process-wide chunk cache, all traces",
		func() int64 { return c.Stats().ResidentBytes }, labels...)
}

// TraceChunkCache is one trace's view of a SharedChunkCacheBytes: the
// chunk cache a Decompressor decodes through. It carries the trace's own
// hit/load/eviction/resident counters for per-trace metrics.
type TraceChunkCache struct {
	c     *SharedChunkCacheBytes
	trace string

	hits      atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64
	// residentBytes/residentChunks are mutated only under c.mu but read
	// lock-free by metric callbacks.
	residentBytes  atomic.Int64
	residentChunks atomic.Int64
}

// Trace reports the trace name the view is bound to.
func (v *TraceChunkCache) Trace() string { return v.trace }

// Get returns the cached chunk, marking it most recently used.
func (v *TraceChunkCache) Get(id int) ([]uint64, bool) {
	c := v.c
	key := byteCacheKey{v.trace, id}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(e)
	addrs := e.Value.(*byteCacheEntry).addrs
	c.mu.Unlock()
	v.hits.Add(1)
	c.hits.Add(1)
	metChunkCacheHits.Inc()
	return addrs, true
}

// touch marks a cached chunk most recently used, without counting a hit,
// and reports whether it is cached.
func (v *TraceChunkCache) touch(id int) bool {
	c := v.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[byteCacheKey{v.trace, id}]
	if ok {
		c.ll.MoveToFront(e)
	}
	return ok
}

// Put inserts a chunk, evicting LRU-by-bytes back to the shared budget.
func (v *TraceChunkCache) Put(id int, addrs []uint64) {
	c := v.c
	c.mu.Lock()
	c.putLocked(v, byteCacheKey{v.trace, id}, addrs)
	c.mu.Unlock()
}

// GetOrLoad implements the singleflight load path across every reader of
// every trace sharing the budget: on a miss the first caller runs load
// while concurrent callers for the same (trace, chunk) wait and share the
// result, and a successful load enters the cache. Failed loads are not
// cached — every waiter sees the error, and the next request retries.
func (v *TraceChunkCache) GetOrLoad(id int, load func() ([]uint64, error)) ([]uint64, error) {
	c := v.c
	key := byteCacheKey{v.trace, id}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		addrs := e.Value.(*byteCacheEntry).addrs
		c.mu.Unlock()
		v.hits.Add(1)
		c.hits.Add(1)
		metChunkCacheHits.Inc()
		return addrs, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		v.hits.Add(1)
		c.hits.Add(1)
		metChunkCacheHits.Inc()
		return f.addrs, nil
	}
	f := &chunkFlight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	f.addrs, f.err = load()
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.putLocked(v, key, f.addrs)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	v.loads.Add(1)
	c.loads.Add(1)
	return f.addrs, nil
}

// TraceCacheStats counts one trace's share of a SharedChunkCacheBytes.
type TraceCacheStats struct {
	Hits           int64
	Loads          int64
	Evictions      int64
	ResidentBytes  int64
	ResidentChunks int64
}

// Stats reports the view's counters and occupancy.
func (v *TraceChunkCache) Stats() TraceCacheStats {
	return TraceCacheStats{
		Hits:           v.hits.Load(),
		Loads:          v.loads.Load(),
		Evictions:      v.evictions.Load(),
		ResidentBytes:  v.residentBytes.Load(),
		ResidentChunks: v.residentChunks.Load(),
	}
}
