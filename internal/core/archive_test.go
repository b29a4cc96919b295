package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"atc/internal/store"
)

// storeKinds enumerates the three Store implementations for cross-store
// property tests. newDest returns (path, opts-with-store) for a fresh
// trace destination of that kind.
type storeKind struct {
	name    string
	newDest func(t *testing.T, opts Options) (string, Options)
}

func storeKinds() []storeKind {
	return []storeKind{
		{"dir", func(t *testing.T, opts Options) (string, Options) {
			return filepath.Join(t.TempDir(), "trace"), opts
		}},
		{"archive", func(t *testing.T, opts Options) (string, Options) {
			opts.Archive = true
			return filepath.Join(t.TempDir(), "trace.atc"), opts
		}},
		{"mem", func(t *testing.T, opts Options) (string, Options) {
			opts.Store = store.NewMem()
			return "mem", opts
		}},
	}
}

// decodeKind re-opens what newDest produced; for mem the written store is
// handed back in via DecodeOptions.
func decodeAllFrom(t *testing.T, path string, opts Options, readahead int) []uint64 {
	t.Helper()
	dopts := DecodeOptions{Readahead: readahead}
	if opts.Store != nil {
		dopts.Store = opts.Store
	}
	d, err := Open(path, dopts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer d.Close()
	got, err := d.DecodeAll()
	if err != nil {
		t.Fatalf("DecodeAll(%s): %v", path, err)
	}
	return got
}

// TestRoundTripAcrossStores is the PR's acceptance property: lossy,
// legacy lossless and segmented lossless at Workers ∈ {1, 8} round-trip
// through every store kind, and the lossless modes are bit exact.
func TestRoundTripAcrossStores(t *testing.T) {
	addrs := randomTrace(t, 31, 30_000)
	modes := []struct {
		name string
		opts Options
	}{
		{"lossy", Options{Mode: Lossy, IntervalLen: 4000, BufferAddrs: 500}},
		{"lossless-legacy", Options{Mode: Lossless, BufferAddrs: 700, SegmentAddrs: -1}},
		{"lossless-segmented", Options{Mode: Lossless, BufferAddrs: 700, SegmentAddrs: 5000}},
	}
	for _, kind := range storeKinds() {
		for _, mode := range modes {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", kind.name, mode.name, workers), func(t *testing.T) {
					opts := mode.opts
					opts.Workers = workers
					path, opts := kind.newDest(t, opts)
					if _, err := WriteTrace(path, addrs, opts); err != nil {
						t.Fatalf("WriteTrace: %v", err)
					}
					for _, ra := range []int{-1, 2} {
						got := decodeAllFrom(t, path, opts, ra)
						if len(got) != len(addrs) {
							t.Fatalf("readahead=%d: decoded %d addrs, want %d", ra, len(got), len(addrs))
						}
						if mode.opts.Mode == Lossless {
							for i := range addrs {
								if got[i] != addrs[i] {
									t.Fatalf("readahead=%d: lossless mismatch at %d", ra, i)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestPackedArchiveDecodesIdentically checks the atcpack path: a directory
// trace copied blob-for-blob into an archive (and back) decodes to the
// identical stream, and the unpacked directory is byte-identical to the
// original.
func TestPackedArchiveDecodesIdentically(t *testing.T) {
	addrs := randomTrace(t, 32, 25_000)
	for _, mode := range []Options{
		{Mode: Lossy, IntervalLen: 3000, BufferAddrs: 400},
		{Mode: Lossless, BufferAddrs: 400, SegmentAddrs: 4000},
		{Mode: Lossless, BufferAddrs: 400, SegmentAddrs: -1},
	} {
		dir := t.TempDir()
		if _, err := WriteTrace(dir, addrs, mode); err != nil {
			t.Fatal(err)
		}
		want, err := ReadTrace(dir)
		if err != nil {
			t.Fatal(err)
		}

		// Pack: dir -> archive, copying blobs verbatim.
		arcPath := filepath.Join(t.TempDir(), "packed.atc")
		arc, err := store.CreateArchive(arcPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CopyAll(arc, store.OpenDir(dir)); err != nil {
			t.Fatal(err)
		}
		if err := arc.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(arcPath)
		if err != nil {
			t.Fatalf("decoding packed archive: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("packed decode length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("packed archive decode diverges at %d", i)
			}
		}

		// Unpack: archive -> dir, and diff against the original directory.
		back := filepath.Join(t.TempDir(), "unpacked")
		rd, err := store.OpenArchive(arcPath)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := store.CreateDir(back)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CopyAll(ds, rd); err != nil {
			t.Fatal(err)
		}
		rd.Close()
		dirsEqual(t, dir, back)
	}
}

// TestArchiveBPAWithinOnePercent is the PR's container-overhead bound: on
// a chunk-heavy workload the archive layout costs less than 1% BPA over
// the directory layout (header + TOC being the only extra bytes).
func TestArchiveBPAWithinOnePercent(t *testing.T) {
	addrs := phasedTrace(12, 4000) // 12 chunks: a TOC with real fan-out
	opts := Options{Mode: Lossy, IntervalLen: 4000, BufferAddrs: 500}
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, opts); err != nil {
		t.Fatal(err)
	}
	arcPath := filepath.Join(t.TempDir(), "trace.atc")
	arcOpts := opts
	arcOpts.Archive = true
	if _, err := WriteTrace(arcPath, addrs, arcOpts); err != nil {
		t.Fatal(err)
	}
	n := int64(len(addrs))
	dirBPA, err := BitsPerAddress(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	arcBPA, err := BitsPerAddress(arcPath, n)
	if err != nil {
		t.Fatal(err)
	}
	if arcBPA < dirBPA {
		t.Fatalf("archive BPA %v below directory BPA %v: the container cannot shrink payloads", arcBPA, dirBPA)
	}
	if overhead := arcBPA/dirBPA - 1; overhead > 0.01 {
		t.Fatalf("archive BPA overhead %.3f%% exceeds 1%% (dir %.4f, archive %.4f)",
			overhead*100, dirBPA, arcBPA)
	}
}

// TestMemStoreServesConcurrentReaders exercises the serving-tier shape: a
// trace compressed once into memory, decoded by several Readers at once.
func TestMemStoreServesConcurrentReaders(t *testing.T) {
	addrs := randomTrace(t, 33, 20_000)
	mem := store.NewMem()
	if _, err := WriteTrace("mem", addrs, Options{
		Mode: Lossless, BufferAddrs: 500, SegmentAddrs: 4000, Store: mem,
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			d, err := Open("mem", DecodeOptions{Store: mem, Readahead: 2})
			if err != nil {
				done <- err
				return
			}
			defer d.Close()
			got, err := d.DecodeAll()
			if err != nil {
				done <- err
				return
			}
			for i := range addrs {
				if got[i] != addrs[i] {
					done <- fmt.Errorf("mismatch at %d", i)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestArchiveCreateFailureLeavesNoFile mirrors the directory cleanup
// guarantees: a failed archive create must not leave a stray file.
func TestArchiveCreateFailureLeavesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.atc")
	if _, err := Create(path, Options{Mode: Mode(9), Archive: true}); err == nil {
		t.Fatal("Create with unknown mode succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("unknown mode left an archive file (stat err = %v)", err)
	}
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		return nil, errInjected
	})
	if _, err := Create(path, Options{Mode: Lossless, SegmentAddrs: -1, Archive: true}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed Create left an archive file (stat err = %v)", err)
	}
}

// TestArchiveRefusesDirOpen: OpenArchive-forced decode of a directory
// trace must fail rather than fall back.
func TestForcedArchiveOpenRejectsDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteTrace(dir, []uint64{1, 2, 3}, Options{Mode: Lossless, SegmentAddrs: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DecodeOptions{Archive: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestArchiveWriterClosePersistsTrailer: an abandoned (never-Closed)
// archive must not open as a valid trace.
func TestUnfinalizedArchiveDoesNotOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.atc")
	c, err := Create(path, Options{Mode: Lossless, SegmentAddrs: 1000, Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		if err := c.Code(i); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the TOC was never written.
	if _, err := Open(path, DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// Closing afterwards completes the archive.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 {
		t.Fatalf("decoded %d addrs after late Close", len(got))
	}
}
