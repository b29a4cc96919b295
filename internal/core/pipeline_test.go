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

// failingChunkFS fails every chunk-blob create after the first `allowed`,
// passing allowed creates through to the compressor's store. Workers call
// create concurrently, so the counter is atomic.
type failingChunkFS struct {
	allowed int64
	created atomic.Int64
	inner   func(name string) (io.WriteCloser, error)
}

var errInjected = errors.New("injected chunk-write failure")

func (f *failingChunkFS) create(name string) (io.WriteCloser, error) {
	if f.created.Add(1) > f.allowed {
		return nil, errInjected
	}
	return f.inner(name)
}

// injectChunkFailures swaps the compressor's chunk-blob creator for one
// that fails after `allowed` successful creates.
func injectChunkFailures(c *Compressor, allowed int64) *failingChunkFS {
	fs := &failingChunkFS{allowed: allowed, inner: c.st.Create}
	c.createChunkFile = fs.create
	return fs
}

func TestCloseSurfacesWorkerError(t *testing.T) {
	for _, workers := range []int{2, 8} {
		c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		injectChunkFailures(c, 1)
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
	injectChunkFailures(c, 0)
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
		injectChunkFailures(c, 0)
		// Feed exactly one interval: its chunk write fails on a worker.
		first := phasedTrace(1, 1000)
		if err := c.CodeSlice(first); err != nil && !errors.Is(err, errInjected) {
			t.Fatal(err)
		}
		// The failure is asynchronous; wait for the latch (bounded), then
		// the next call must surface it — no further intervals needed.
		for i := 0; i < 1_000_000 && !c.hasWerr.Load(); i++ {
			runtime.Gosched()
		}
		if !c.hasWerr.Load() {
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
// caller classifies a full interval and hands the chunk to the single
// pool worker, so CodeSlice returns while that chunk's write is still
// blocked, and the trace completes once the write goes through.
func TestLossyWorkers1WritesOnPool(t *testing.T) {
	c, err := Create(t.TempDir(), Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	inner := c.createChunkFile
	c.createChunkFile = func(name string) (io.WriteCloser, error) {
		<-release
		return inner(name)
	}
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
