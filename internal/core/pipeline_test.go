package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"atc/internal/histogram"
	"atc/internal/store"
)

// phasedTrace builds a trace whose intervals have distinct sorted-histogram
// shapes (footprints of different sizes), so every interval becomes its own
// chunk and the worker pool is actually exercised.
func phasedTrace(intervals, intervalLen int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	addrs := make([]uint64, 0, intervals*intervalLen)
	for p := 0; p < intervals; p++ {
		footprint := 64 << uint(p%10)
		base := uint64(p) << 32
		for i := 0; i < intervalLen; i++ {
			addrs = append(addrs, base+uint64(rng.Intn(footprint)))
		}
	}
	return addrs
}

// dirsEqual asserts two compressed-trace directories hold the same file
// names with byte-identical contents.
func dirsEqual(t *testing.T, a, b string) {
	t.Helper()
	ea, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("file count: %d vs %d", len(ea), len(eb))
	}
	for i, e := range ea {
		if e.Name() != eb[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, e.Name(), eb[i].Name())
		}
		da, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Fatalf("%s differs between worker counts", e.Name())
		}
	}
}

func TestWorkersOutputByteIdentical(t *testing.T) {
	for _, mode := range []Mode{Lossless, Lossy} {
		t.Run(mode.String(), func(t *testing.T) {
			var addrs []uint64
			opts := Options{Mode: mode, Workers: 1}
			if mode == Lossless {
				rng := rand.New(rand.NewSource(5))
				addrs = make([]uint64, 30_000)
				for i := range addrs {
					addrs[i] = uint64(rng.Intn(1 << 30))
				}
				opts.BufferAddrs = 1000
			} else {
				addrs = phasedTrace(12, 2000)
				opts.IntervalLen = 2000
				opts.BufferAddrs = 500
			}
			serialDir := t.TempDir()
			serialStats, err := WriteTrace(serialDir, addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode == Lossy && serialStats.Chunks < 8 {
				t.Fatalf("trace not chunk-heavy enough: %d chunks", serialStats.Chunks)
			}
			for _, workers := range []int{2, 8} {
				w := workers
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					dir := t.TempDir()
					o := opts
					o.Workers = w
					stats, err := WriteTrace(dir, addrs, o)
					if err != nil {
						t.Fatal(err)
					}
					if stats != serialStats {
						t.Fatalf("stats diverge: %+v vs %+v", stats, serialStats)
					}
					dirsEqual(t, serialDir, dir)
					got, err := ReadTrace(dir)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ReadTrace(serialDir)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("decoded length %d vs %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("decoded stream diverges at %d", i)
						}
					}
				})
			}
		})
	}
}

func TestWorkersLosslessRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 700, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := ReadTrace(dir)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("workers=%d: mismatch at %d", workers, i)
			}
		}
	}
}

// swapChunkHook replaces the chunk-blob creator for the rest of the test.
// The hook is package state, so no test that swaps it runs in parallel.
func swapChunkHook(t *testing.T, create func(st store.Store, name string) (io.WriteCloser, error)) {
	orig := createChunkFileHook
	createChunkFileHook = create
	t.Cleanup(func() { createChunkFileHook = orig })
}

var errInjected = errors.New("injected chunk-write failure")

// injectChunkFailures makes every chunk-blob create after the first
// `allowed` fail, passing allowed creates through to the store. Workers
// call create concurrently, so the counter is atomic.
func injectChunkFailures(t *testing.T, allowed int64) {
	var created atomic.Int64
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		if created.Add(1) > allowed {
			return nil, errInjected
		}
		return st.Create(name)
	})
}

func TestCloseSurfacesWorkerError(t *testing.T) {
	for _, workers := range []int{2, 8} {
		c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		injectChunkFailures(t, 1)
		addrs := phasedTrace(6, 1000)
		// The failure is asynchronous: it may surface from a CodeSlice that
		// completes a later interval, or only from Close.
		codeErr := c.CodeSlice(addrs)
		closeErr := c.Close()
		if !errors.Is(codeErr, errInjected) && !errors.Is(closeErr, errInjected) {
			t.Fatalf("workers=%d: injected error lost (code=%v close=%v)", workers, codeErr, closeErr)
		}
		// The compressor stays failed: further use reports the same error.
		if err := c.Code(1); !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: Code after failure = %v", workers, err)
		}
	}
}

func TestCodeSurfacesDeferredWorkerError(t *testing.T) {
	c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 500, BufferAddrs: 200, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	injectChunkFailures(t, 0)
	addrs := phasedTrace(40, 500)
	var sawErr error
	for _, a := range addrs {
		if sawErr = c.Code(a); sawErr != nil {
			break
		}
	}
	if sawErr == nil {
		sawErr = c.Close()
	} else if err := c.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close after deferred error = %v", err)
	}
	if !errors.Is(sawErr, errInjected) {
		t.Fatalf("deferred worker error never surfaced: %v", sawErr)
	}
}

// TestCodeFailsFastAfterWorkerError pins the fail-fast contract: once a
// pool worker's failure has latched, the very next Code or CodeSlice call
// reports it — the caller must not keep feeding (and buffering intervals
// for) a dead pipeline until Close.
func TestCodeFailsFastAfterWorkerError(t *testing.T) {
	for _, useSlice := range []bool{false, true} {
		c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		injectChunkFailures(t, 0)
		// Feed exactly one interval: its chunk write fails on a worker.
		first := phasedTrace(1, 1000)
		if err := c.CodeSlice(first); err != nil && !errors.Is(err, errInjected) {
			t.Fatal(err)
		}
		// The failure is asynchronous; wait for the latch (bounded), then
		// the next call must surface it — no further intervals needed.
		for i := 0; i < 1_000_000 && c.werr.Load() == nil; i++ {
			runtime.Gosched()
		}
		if c.werr.Load() == nil {
			t.Fatalf("useSlice=%v: worker error never latched", useSlice)
		}
		if useSlice {
			err = c.CodeSlice([]uint64{1})
		} else {
			err = c.Code(1)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("useSlice=%v: next call after latched failure = %v, want injected error", useSlice, err)
		}
		if err := c.Close(); !errors.Is(err, errInjected) {
			t.Fatalf("useSlice=%v: Close = %v, want injected error", useSlice, err)
		}
	}
}

// TestLossyWorkers1WritesOnPool pins the Workers=1 lossy encoder: the
// classify goroutine hands a full interval's chunk to the single pool
// worker, so CodeSlice returns while that chunk's write is still blocked,
// and the trace completes once the write goes through.
func TestLossyWorkers1WritesOnPool(t *testing.T) {
	c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		<-release
		return st.Create(name)
	})
	// One full interval (chunk 1, handed to the worker) and half of the
	// next, which stays in the caller's buffer until Close.
	addrs := phasedTrace(2, 1000)[:1500]
	done := make(chan error, 1)
	go func() { done <- c.CodeSlice(addrs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("CodeSlice blocked on the chunk write: Workers=1 wrote on the caller")
	}
	close(release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks = %d, want 2", st.Chunks)
	}
}

// TestChunkBuffersBounded codes traces whose intervals or segments all
// become chunks and checks that at most Workers + queue + 1 chunk buffers
// were ever allocated: two, a double buffer, at Workers=1.
func TestChunkBuffersBounded(t *testing.T) {
	addrs := phasedTrace(10, 1000)
	for _, mode := range []Mode{Lossy, Lossless} {
		for _, tc := range []struct{ workers, max int }{{1, 2}, {2, 5}, {4, 9}} {
			c, err := Create(t.TempDir(), Options{Mode: mode, IntervalLen: 1000, SegmentAddrs: 1000, BufferAddrs: 300, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CodeSlice(addrs); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Chunks != 10 {
				t.Fatalf("%v workers=%d: %d chunks, want 10", mode, tc.workers, st.Chunks)
			}
			if c.nBufs > tc.max {
				t.Fatalf("%v workers=%d: %d chunk buffers allocated, want at most %d", mode, tc.workers, c.nBufs, tc.max)
			}
		}
	}
}

// closeSignal is a chunk blob that reports on done once it is closed.
type closeSignal struct {
	io.WriteCloser
	done chan struct{}
}

func (w closeSignal) Close() error {
	err := w.WriteCloser.Close()
	select {
	case w.done <- struct{}{}:
	default:
	}
	return err
}

// TestLossyReusesHistogramSet codes a trace whose intervals after the
// first two are all imitations and checks that each one allocates less
// than a histogram Set: the spare Set is reused at every worker count.
func TestLossyReusesHistogramSet(t *testing.T) {
	const intervalLen, imitations = 4096, 32
	interval := phasedTrace(1, intervalLen)
	written := make(chan struct{}, 1)
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		w, err := st.Create(name)
		return closeSignal{w, written}, err
	})
	for _, workers := range []int{1, 2} {
		c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// Interval 1 becomes chunk 1 and interval 2 its first imitation,
		// which allocates the spare Set. Then wait until the worker has
		// written chunk 1, so its allocations stay out of the measurement.
		for i := 0; i < 2; i++ {
			if err := c.CodeSlice(interval); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-written:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: chunk 1 never written", workers)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < imitations; i++ {
			if err := c.CodeSlice(interval); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Chunks != 1 || st.Imitations != imitations+1 {
			t.Fatalf("workers=%d: %d chunks and %d imitations, want 1 and %d", workers, st.Chunks, st.Imitations, imitations+1)
		}
		perInterval := (after.TotalAlloc - before.TotalAlloc) / imitations
		if set := uint64(unsafe.Sizeof(histogram.Set{})); perInterval >= set {
			t.Fatalf("workers=%d: %d bytes allocated per imitated interval, want < %d (one histogram Set)", workers, perInterval, set)
		}
	}
}

// TestCodeSliceBulkBoundaries covers the bulk-ingest path: slices that
// split unevenly over interval/segment boundaries produce traces
// identical to per-address Code calls.
func TestCodeSliceBulkBoundaries(t *testing.T) {
	addrs := phasedTrace(7, 1500)
	addrs = addrs[:len(addrs)-713] // short final interval
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"lossy", Options{Mode: Lossy, IntervalLen: 1500, BufferAddrs: 400, Workers: 4}},
		{"segmented", Options{Mode: Lossless, SegmentAddrs: 1500, BufferAddrs: 400, Workers: 4}},
		{"legacy", Options{Mode: Lossless, SegmentAddrs: -1, BufferAddrs: 400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perAddr := t.TempDir()
			c, err := Create(perAddr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				if err := c.Code(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			bulk := t.TempDir()
			c, err = Create(bulk, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Uneven chunking: prime-sized slices stride the boundaries.
			for off := 0; off < len(addrs); off += 977 {
				end := off + 977
				if end > len(addrs) {
					end = len(addrs)
				}
				if err := c.CodeSlice(addrs[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			dirsEqual(t, perAddr, bulk)
		})
	}
}

func TestReadaheadMatchesSynchronousDecode(t *testing.T) {
	addrs := phasedTrace(10, 1500)
	for _, mode := range []Mode{Lossless, Lossy} {
		dir := t.TempDir()
		if _, err := WriteTrace(dir, addrs, Options{Mode: mode, IntervalLen: 1500, BufferAddrs: 400}); err != nil {
			t.Fatal(err)
		}
		sync, err := decodeWith(dir, -1)
		if err != nil {
			t.Fatalf("%v sync: %v", mode, err)
		}
		for _, ra := range []int{0, 1, 4} {
			got, err := decodeWith(dir, ra)
			if err != nil {
				t.Fatalf("%v readahead=%d: %v", mode, ra, err)
			}
			if len(got) != len(sync) {
				t.Fatalf("%v readahead=%d: length %d vs %d", mode, ra, len(got), len(sync))
			}
			for i := range sync {
				if got[i] != sync[i] {
					t.Fatalf("%v readahead=%d: diverges at %d", mode, ra, i)
				}
			}
		}
	}
}

func decodeWith(dir string, readahead int) ([]uint64, error) {
	d, err := Open(dir, DecodeOptions{Readahead: readahead})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.DecodeAll()
}

func TestReadaheadEarlyCloseStopsProducer(t *testing.T) {
	addrs := phasedTrace(10, 2000)
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: 2000, BufferAddrs: 400}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Consume a handful of addresses, then abandon: Close must stop the
	// producer goroutine without deadlocking (the race detector and
	// goroutine-leak-adjacent hangs would fail this test).
	for i := 0; i < 100; i++ {
		if _, err := d.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Close discarded the buffered readahead batches, so decoding cannot
	// resume: it must fail rather than silently skip intervals.
	if _, err := d.Decode(); err == nil || err == io.EOF {
		t.Fatalf("Decode after Close = %v, want error", err)
	}
}

func TestReadaheadSurfacesCorruptChunk(t *testing.T) {
	addrs := phasedTrace(6, 1000)
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "3.bsc")); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, err = d.DecodeAll()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
