package store

// Tests of RangeReaderAt's sequential block readahead: the heuristic
// (advance past the previous read's frontier), the background fetch, its
// dedup with demand reads, and the hit/wasted accounting.

import (
	"testing"
	"time"
)

// newPrefetchReader builds a reader with prefetch enabled (the helper
// shared with the demand-fetch tests disables it).
func newPrefetchReader(t *testing.T, h *rangeHost, blockSize, cacheBlocks int) *RangeReaderAt {
	t.Helper()
	ra, _ := newRemoteReader(t, h, blockSize, cacheBlocks, 0)
	ra.noPrefetch = false
	return ra
}

// waitFor polls until cond holds, failing the test after a deadline —
// prefetches complete on a background goroutine.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *RangeReaderAt) blockResident(b int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, cached := r.cache.m[b]
	return cached
}

func TestPrefetchSequentialReads(t *testing.T) {
	data := testObject(8 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)

	read := func(block int64) {
		t.Helper()
		buf := make([]byte, 1024)
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
	}
	read(0) // first read ever: no frontier yet, no speculation
	if n := ra.Stats().Prefetches; n != 0 {
		t.Fatalf("prefetches after first read = %d, want 0", n)
	}
	read(0) // same block again: no progress, no speculation
	if n := ra.Stats().Prefetches; n != 0 {
		t.Fatalf("prefetches after repeated read = %d, want 0", n)
	}
	read(1) // advances the frontier: block 2 fetches in the background
	waitFor(t, "prefetch of block 2", func() bool { return ra.blockResident(2) })
	st := ra.Stats()
	if st.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", st.Prefetches)
	}
	before := h.requests.Load()
	hitsBefore := metRemotePrefetchHit.Value()
	read(2) // served by the prefetched block: no demand request
	// read(2) advanced the frontier again with a doubled window: blocks 3
	// and 4 speculate as one coalesced run in the background. Once it has
	// landed, that GET must be the only new origin request.
	waitFor(t, "prefetch of blocks 3 and 4", func() bool { return ra.blockResident(3) && ra.blockResident(4) })
	if n := h.requests.Load(); n != before+1 {
		t.Fatalf("requests %d -> %d across read of prefetched block, want exactly one more (the 3-4 prefetch)", before, n)
	}
	st = ra.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", st.PrefetchHits)
	}
	if d := metRemotePrefetchHit.Value() - hitsBefore; d != 1 {
		t.Fatalf("atc_remote_prefetch_total{result=hit} advanced by %d, want 1", d)
	}
	// A jump backwards must not speculate (and halves the window).
	read(0)
	if n := ra.Stats().Prefetches; n != 3 {
		t.Fatalf("prefetches after backwards jump = %d, want 3", n)
	}
}

func TestPrefetchDedupesOntoDemandRead(t *testing.T) {
	data := testObject(8 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)

	buf := make([]byte, 1024)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadAt(buf, 1024); err != nil {
		t.Fatal(err)
	}
	// The prefetch of block 2 is now in flight or landed. A demand read
	// must either dedupe onto it or hit the cached result — never issue
	// its own fetch — and count the speculation as a hit either way. It
	// also advances the frontier, speculating blocks 3 and 4 (the window
	// doubled) as one coalesced run.
	if _, err := ra.ReadAt(buf, 2048); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "requests to settle", func() bool { return h.requests.Load() == 4 })
	st := ra.Stats()
	if st.Prefetches != 3 || st.PrefetchHits != 1 {
		t.Fatalf("prefetches/hits = %d/%d, want 3/1", st.Prefetches, st.PrefetchHits)
	}
	if n := h.requests.Load(); n != 4 {
		t.Fatalf("requests = %d, want 4 (two demand reads + two prefetch runs)", n)
	}
}

func TestPrefetchWastedOnEviction(t *testing.T) {
	data := testObject(16 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 2)

	read := func(block int64) {
		t.Helper()
		buf := make([]byte, 1024)
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
	}
	wastedBefore := metRemotePrefetchWasted.Value()
	read(0)
	read(1) // speculates block 2 into the 2-block cache
	waitFor(t, "prefetch of block 2", func() bool { return ra.Stats().Prefetches == 1 && !ra.inflightBlock(2) })
	// Jump away: demand blocks churn the tiny LRU until the untouched
	// speculative block falls off the cold end.
	read(8)
	read(10)
	read(12)
	waitFor(t, "wasted accounting", func() bool { return ra.Stats().PrefetchWasted >= 1 })
	st := ra.Stats()
	if st.PrefetchHits != 0 {
		t.Fatalf("prefetch hits = %d, want 0", st.PrefetchHits)
	}
	if d := metRemotePrefetchWasted.Value() - wastedBefore; d < 1 {
		t.Fatalf("atc_remote_prefetch_total{result=wasted} advanced by %d, want >= 1", d)
	}
}

func (r *RangeReaderAt) inflightBlock(b int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, busy := r.inflight[b]
	return busy
}

func TestPrefetchStopsAtEOF(t *testing.T) {
	data := testObject(2 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)

	buf := make([]byte, 1024)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadAt(buf, 1024); err != nil { // last block: nothing beyond it
		t.Fatal(err)
	}
	if st := ra.Stats(); st.Prefetches != 0 {
		t.Fatalf("prefetches past EOF = %d, want 0", st.Prefetches)
	}
	if n := h.requests.Load(); n != 2 {
		t.Fatalf("requests = %d, want 2", n)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	data := testObject(8 << 10)
	h := &rangeHost{data: data}
	ra, _ := newRemoteReader(t, h, 1024, 64, 0) // helper sets noPrefetch

	buf := make([]byte, 1024)
	for b := int64(0); b < 4; b++ {
		if _, err := ra.ReadAt(buf, b*1024); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if st := ra.Stats(); st.Prefetches != 0 {
		t.Fatalf("prefetches with readahead disabled = %d, want 0", st.Prefetches)
	}
	if n := h.requests.Load(); n != 4 {
		t.Fatalf("requests = %d, want 4 demand fetches only", n)
	}
}

func TestPrefetchAdaptiveRampUp(t *testing.T) {
	data := testObject(64 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)

	read := func(block int64) {
		t.Helper()
		buf := make([]byte, 1024)
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	if d := ra.Stats().PrefetchDepth; d != 1 {
		t.Fatalf("initial prefetch depth = %d, want 1", d)
	}
	// Each sustained sequential read doubles the window up to the cap.
	want := []int64{2, 4, 8, 16, 16, 16}
	for i, block := range []int64{1, 2, 3, 4, 5, 6} {
		read(block)
		if d := ra.Stats().PrefetchDepth; d != want[i] {
			t.Fatalf("prefetch depth after %d sequential reads = %d, want %d", i+2, d, want[i])
		}
	}
	// Drain the rest of the object sequentially: with the window at the
	// cap, consumed blocks come out of coalesced readahead runs, so the
	// origin sees far fewer requests than blocks.
	for block := int64(7); block < 48; block++ {
		read(block)
	}
	if n := h.requests.Load(); n >= 24 {
		t.Fatalf("requests for 48 sequential blocks = %d, want < 24 (adaptive coalescing)", n)
	}
}

func TestPrefetchAdaptiveRampDown(t *testing.T) {
	data := testObject(64 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)

	read := func(block int64) {
		t.Helper()
		buf := make([]byte, 1024)
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
	}
	for block := int64(0); block <= 5; block++ {
		read(block)
	}
	if d := ra.Stats().PrefetchDepth; d != 16 {
		t.Fatalf("ramped prefetch depth = %d, want 16", d)
	}
	// Each departure from the sequential pattern halves the window.
	for i, block := range []int64{30, 40, 50} {
		read(block)
		if d, want := ra.Stats().PrefetchDepth, int64(16>>(i+1)); d != want {
			t.Fatalf("prefetch depth after %d jumps = %d, want %d", i+1, d, want)
		}
	}
	// A wasted prefetch (speculative block evicted unread) halves it too.
	ra.mu.Lock()
	ra.prefDepth = 8
	ra.noteWasted(1)
	d := ra.depthLocked()
	ra.mu.Unlock()
	if d != 4 {
		t.Fatalf("prefetch depth after wasted prefetch = %d, want 4", d)
	}
}

func TestPrefetchFixedDepthCap(t *testing.T) {
	data := testObject(16 << 10)
	h := &rangeHost{data: data}
	ra := newPrefetchReader(t, h, 1024, 64)
	ra.maxPrefetch = 1 // pins the fixed depth-1 readahead

	buf := make([]byte, 1024)
	for block := int64(0); block < 8; block++ {
		if _, err := ra.ReadAt(buf, block*1024); err != nil {
			t.Fatal(err)
		}
		if d := ra.Stats().PrefetchDepth; d != 1 {
			t.Fatalf("prefetch depth with cap 1 = %d, want 1", d)
		}
	}
}
