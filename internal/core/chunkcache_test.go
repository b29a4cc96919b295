package core

// Tests of the byte-budgeted chunk cache: budget enforcement under
// concurrent load across traces, LRU-by-bytes eviction order,
// singleflight loads, the oversize-entry bypass, and a pool of
// Decompressors sharing one trace view.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func chunkOf(n int, fill uint64) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = fill
	}
	return addrs
}

func TestByteCacheBudgetEnforced(t *testing.T) {
	// 10 chunks of 100 addrs fit an 8000-byte budget exactly; inserting
	// 30 across three traces must keep residency at or below it.
	c := NewSharedChunkCacheBytes(8000)
	for trace := 0; trace < 3; trace++ {
		v := c.ForTrace(fmt.Sprintf("t%d", trace))
		for id := 0; id < 10; id++ {
			v.Put(id, chunkOf(100, uint64(id)))
			if st := c.Stats(); st.ResidentBytes > st.Budget {
				t.Fatalf("resident bytes %d exceed budget %d", st.ResidentBytes, st.Budget)
			}
		}
	}
	st := c.Stats()
	if st.ResidentBytes != 8000 || st.ResidentChunks != 10 {
		t.Fatalf("resident = %d bytes / %d chunks, want 8000 / 10", st.ResidentBytes, st.ResidentChunks)
	}
	if st.Evictions != 20 {
		t.Fatalf("evictions = %d, want 20", st.Evictions)
	}
	// Per-view accounting must sum to the global occupancy.
	var bytes, chunks int64
	for trace := 0; trace < 3; trace++ {
		vs := c.ForTrace(fmt.Sprintf("t%d", trace)).Stats()
		bytes += vs.ResidentBytes
		chunks += vs.ResidentChunks
	}
	if bytes != st.ResidentBytes || chunks != int64(st.ResidentChunks) {
		t.Fatalf("view sums = %d bytes / %d chunks, want %d / %d", bytes, chunks, st.ResidentBytes, st.ResidentChunks)
	}
}

func TestByteCacheLRUOrder(t *testing.T) {
	c := NewSharedChunkCacheBytes(3 * 80)
	v := c.ForTrace("t")
	v.Put(1, chunkOf(10, 1))
	v.Put(2, chunkOf(10, 2))
	v.Put(3, chunkOf(10, 3))
	if _, ok := v.Get(1); !ok { // refresh 1: 2 is now coldest
		t.Fatal("chunk 1 missing before eviction")
	}
	v.Put(4, chunkOf(10, 4))
	if _, ok := v.Get(2); ok {
		t.Fatal("chunk 2 survived eviction despite being LRU")
	}
	for _, id := range []int{1, 3, 4} {
		if _, ok := v.Get(id); !ok {
			t.Fatalf("chunk %d evicted out of LRU order", id)
		}
	}
}

func TestByteCacheTracesDoNotCollide(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	a, b := c.ForTrace("a"), c.ForTrace("b")
	a.Put(7, chunkOf(4, 111))
	b.Put(7, chunkOf(4, 222))
	got, ok := a.Get(7)
	if !ok || got[0] != 111 {
		t.Fatalf("trace a chunk 7 = %v, %v; want [111 ...], true", got, ok)
	}
	got, ok = b.Get(7)
	if !ok || got[0] != 222 {
		t.Fatalf("trace b chunk 7 = %v, %v; want [222 ...], true", got, ok)
	}
}

func TestByteCacheOversizeEntryBypasses(t *testing.T) {
	c := NewSharedChunkCacheBytes(100)
	v := c.ForTrace("t")
	v.Put(1, chunkOf(1000, 1)) // 8000 bytes against a 100-byte budget
	if _, ok := v.Get(1); ok {
		t.Fatal("chunk larger than the whole budget was admitted")
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes = %d, want 0", st.ResidentBytes)
	}
	// The singleflight load path still returns the data, it just is not
	// retained.
	got, err := v.GetOrLoad(1, func() ([]uint64, error) { return chunkOf(1000, 7), nil })
	if err != nil || len(got) != 1000 || got[0] != 7 {
		t.Fatalf("oversize GetOrLoad = %d addrs, %v", len(got), err)
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes after oversize load = %d, want 0", st.ResidentBytes)
	}
}

func TestByteCacheSingleflight(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	gate := make(chan struct{})
	var loads int
	var wg sync.WaitGroup
	results := make([][]uint64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = v.GetOrLoad(7, func() ([]uint64, error) {
				<-gate
				loads++ // safe: the cache runs load at most once
				return chunkOf(3, 42), nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	for i, r := range results {
		if len(r) != 3 || r[0] != 42 {
			t.Fatalf("goroutine %d saw %v", i, r)
		}
	}
	if st := v.Stats(); st.Loads != 1 || st.Hits != 15 {
		t.Fatalf("view loads/hits = %d/%d, want 1/15", st.Loads, st.Hits)
	}
}

func TestByteCacheLoadErrorNotCached(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	boom := errors.New("backend exploded")
	if _, err := v.GetOrLoad(1, func() ([]uint64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("GetOrLoad error = %v, want %v", err, boom)
	}
	a, err := v.GetOrLoad(1, func() ([]uint64, error) { return []uint64{5}, nil })
	if err != nil || len(a) != 1 || a[0] != 5 {
		t.Fatalf("retry after failed load = %v, %v", a, err)
	}
	// The chunk is now resident: a request for it is a hit that runs no
	// load.
	b, err := v.GetOrLoad(1, func() ([]uint64, error) {
		t.Error("load ran for a resident chunk")
		return nil, nil
	})
	if err != nil || len(b) != 1 || b[0] != 5 {
		t.Fatalf("GetOrLoad of a resident chunk = %v, %v", b, err)
	}
	if st := v.Stats(); st.Loads != 1 || st.Hits != 1 {
		t.Fatalf("view stats = %+v, want 1 load and 1 hit", st)
	}
}

// TestSharedChunkCacheLRU checks that eviction order is one LRU across
// every trace sharing the budget, not a per-trace order: touching trace
// a's chunk makes trace b's chunk the victim.
func TestSharedChunkCacheLRU(t *testing.T) {
	c := NewSharedChunkCacheBytes(2 * 80)
	a, b := c.ForTrace("a"), c.ForTrace("b")
	a.Put(1, chunkOf(10, 1))
	b.Put(1, chunkOf(10, 2))
	a.Get(1)                 // touch: b's chunk 1 is now least recently used
	b.Put(2, chunkOf(10, 3)) // evicts b's chunk 1
	if _, ok := b.Get(1); ok {
		t.Fatal("LRU evicted the recently used entry instead of the stale one")
	}
	if got, ok := a.Get(1); !ok || got[0] != 1 {
		t.Fatalf("a.Get(1) = %v, %v", got, ok)
	}
	if st := c.Stats(); st.ResidentChunks != 2 || st.ResidentBytes != 160 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 chunks / 160 bytes resident and 1 eviction", st)
	}
	if as, bs := a.Stats(), b.Stats(); as.ResidentChunks != 1 || as.Evictions != 0 || bs.ResidentChunks != 1 || bs.Evictions != 1 {
		t.Fatalf("view stats a=%+v b=%+v, want one resident chunk each and the eviction charged to b", as, bs)
	}
	if NewSharedChunkCacheBytes(0).Budget() != 8 {
		t.Fatal("budget floor of one address not applied")
	}
}

// TestSharedChunkCacheSingleflight checks that concurrent misses are
// deduplicated per (trace, chunk): two traces asking for the same chunk
// ID each load once, and every other caller shares its trace's result.
func TestSharedChunkCacheSingleflight(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	traces := []string{"a", "b"}
	var mu sync.Mutex
	loads := map[string]int{}
	gate := make(chan struct{})
	const readers = 16
	var wg sync.WaitGroup
	results := make([][]uint64, len(traces)*readers)
	for ti, name := range traces {
		v := c.ForTrace(name)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(slot int, name string, fill uint64) {
				defer wg.Done()
				results[slot], _ = v.GetOrLoad(7, func() ([]uint64, error) {
					mu.Lock()
					loads[name]++
					mu.Unlock()
					<-gate
					return chunkOf(3, fill), nil
				})
			}(ti*readers+i, name, uint64(100+ti))
		}
	}
	close(gate)
	wg.Wait()
	for ti, name := range traces {
		if loads[name] != 1 {
			t.Fatalf("trace %s: load ran %d times, want 1 (singleflight)", name, loads[name])
		}
		for i := 0; i < readers; i++ {
			if r := results[ti*readers+i]; len(r) != 3 || r[0] != uint64(100+ti) {
				t.Fatalf("trace %s reader %d got %v", name, i, r)
			}
		}
		if st := c.ForTrace(name).Stats(); st.Loads != 1 || st.Hits != readers-1 {
			t.Fatalf("trace %s stats = %+v, want 1 load and %d hits", name, st, readers-1)
		}
	}
	if st := c.Stats(); st.Loads != 2 || st.Hits != 2*(readers-1) {
		t.Fatalf("global stats = %+v, want 2 loads and %d hits", st, 2*(readers-1))
	}
}

// TestSharedChunkCacheLoadError checks that every caller sharing a failed
// load sees its error, that nothing is retained or counted as a load,
// and that the next request retries and can succeed.
func TestSharedChunkCacheLoadError(t *testing.T) {
	c := NewSharedChunkCacheBytes(1 << 20)
	v := c.ForTrace("t")
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = v.GetOrLoad(1, func() ([]uint64, error) {
				<-gate
				return nil, boom
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want %v", i, err, boom)
		}
	}
	if st := c.Stats(); st.ResidentChunks != 0 || st.Loads != 0 {
		t.Fatalf("stats after failed loads = %+v, want nothing resident and no loads", st)
	}
	a, err := v.GetOrLoad(1, func() ([]uint64, error) { return []uint64{5}, nil })
	if err != nil || a[0] != 5 {
		t.Fatalf("retry after failed load = %v, %v", a, err)
	}
	if got, ok := v.Get(1); !ok || got[0] != 5 {
		t.Fatalf("successful retry not cached: %v, %v", got, ok)
	}
}

// TestByteCacheConcurrentBudget hammers one budget from three traces'
// worth of concurrent readers (the -race config of this test is the
// acceptance check for the byte budget): residency must never exceed the
// budget at any observation point.
func TestByteCacheConcurrentBudget(t *testing.T) {
	const budget = 64 * 80 // 64 chunks of 10 addrs
	c := NewSharedChunkCacheBytes(budget)
	stop := make(chan struct{})
	done := make(chan struct{})
	// Observer: polls global occupancy while writers churn.
	violations := make(chan int64, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.ResidentBytes > st.Budget {
				select {
				case violations <- st.ResidentBytes:
				default:
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for trace := 0; trace < 3; trace++ {
		v := c.ForTrace(fmt.Sprintf("t%d", trace))
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(v *TraceChunkCache, g int) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					id := (g*400 + i) % 97
					_, err := v.GetOrLoad(id, func() ([]uint64, error) {
						return chunkOf(10+id%7, uint64(id)), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(v, g)
		}
	}
	wg.Wait()
	close(stop)
	<-done
	select {
	case over := <-violations:
		t.Fatalf("resident bytes reached %d, budget %d", over, budget)
	default:
	}
	if st := c.Stats(); st.ResidentBytes > st.Budget {
		t.Fatalf("final resident bytes %d exceed budget %d", st.ResidentBytes, st.Budget)
	}
}

// TestSharedCacheExactlyOncePerPool is the shared cache's core guarantee:
// a pool of Decompressors sharing one trace view and hammering the
// same hot window decompresses each touched chunk exactly once across the
// whole pool — under the race detector, with every reader running
// concurrently.
func TestSharedCacheExactlyOncePerPool(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1500}); err != nil {
		t.Fatal(err)
	}
	shared := NewSharedChunkCacheBytes(1 << 20).ForTrace("t")
	const readers = 8
	pool := make([]*Decompressor, readers)
	for i := range pool {
		d, err := Open(dir, DecodeOptions{ChunkCache: shared})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		pool[i] = d
	}
	// The hot window [2000, 5000) straddles segments 1, 2 and 3 (1500
	// addresses each: spans [1500,3000), [3000,4500), [4500,6000)).
	const from, to = 2000, 5000
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds)
	for _, d := range pool {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := d.DecodeRange(from, to)
				if err != nil {
					errs <- err
					return
				}
				for j, v := range got {
					if v != addrs[from+j] {
						errs <- errors.New("decoded window diverges")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for _, d := range pool {
		total += d.ChunkReads()
	}
	if total != 3 {
		t.Fatalf("pool-wide chunk reads = %d, want 3 (one per chunk under the window, exactly once across %d readers x %d rounds)",
			total, readers, rounds)
	}
	if st := shared.Stats(); st.Loads != 3 {
		t.Fatalf("shared cache loads = %d, want 3", st.Loads)
	}
}
