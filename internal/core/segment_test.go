package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"atc/internal/store"
)

// splitmix64 mirrors the generator that produced the checked-in v1 golden
// traces (testdata/v1-*), so the decoder tests can regenerate the exact
// address sequence without storing it.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func goldenTrace(n int) []uint64 {
	state := uint64(2009)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = splitmix64(&state) & ((1 << 26) - 1)
	}
	return addrs
}

func randomTrace(t testing.TB, seed int64, n int) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 28))
	}
	return addrs
}

func TestSegmentedLosslessRoundTrip(t *testing.T) {
	addrs := randomTrace(t, 21, 10_000)
	// Segment sizes that divide the trace, leave a short tail, degenerate
	// to one address per segment region, and exceed the trace entirely.
	for _, seg := range []int{10_000, 2_500, 1_700, 999, 1, 50_000} {
		dir := t.TempDir()
		stats, err := WriteTrace(dir, addrs, Options{
			Mode: Lossless, BufferAddrs: 700, SegmentAddrs: seg,
		})
		if err != nil {
			t.Fatalf("seg=%d: %v", seg, err)
		}
		wantChunks := int64((len(addrs) + seg - 1) / seg)
		if stats.Chunks != wantChunks {
			t.Fatalf("seg=%d: chunks = %d, want %d", seg, stats.Chunks, wantChunks)
		}
		for _, ra := range []int{-1, 1, 4} {
			got, err := decodeWith(dir, ra)
			if err != nil {
				t.Fatalf("seg=%d readahead=%d: %v", seg, ra, err)
			}
			if len(got) != len(addrs) {
				t.Fatalf("seg=%d readahead=%d: decoded %d addrs, want %d", seg, ra, len(got), len(addrs))
			}
			for i := range addrs {
				if got[i] != addrs[i] {
					t.Fatalf("seg=%d readahead=%d: mismatch at %d", seg, ra, i)
				}
			}
		}
	}
}

func TestSegmentedVsLegacyBitExact(t *testing.T) {
	// Property test: for random traces and segment sizes, the segmented
	// (v2) and legacy single-chunk (v1) layouts decode to identical,
	// bit-exact streams.
	f := func(seed int64, nRaw, segRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		seg := int(segRaw)%2000 + 1
		addrs := randomTrace(t, seed, n)
		segDir, err := os.MkdirTemp("", "atcseg")
		if err != nil {
			return false
		}
		defer os.RemoveAll(segDir)
		legDir, err := os.MkdirTemp("", "atcleg")
		if err != nil {
			return false
		}
		defer os.RemoveAll(legDir)
		if _, err := WriteTrace(segDir, addrs, Options{Mode: Lossless, BufferAddrs: 128, SegmentAddrs: seg}); err != nil {
			return false
		}
		if _, err := WriteTrace(legDir, addrs, Options{Mode: Lossless, BufferAddrs: 128, SegmentAddrs: -1}); err != nil {
			return false
		}
		segGot, err := ReadTrace(segDir)
		if err != nil {
			return false
		}
		legGot, err := ReadTrace(legDir)
		if err != nil {
			return false
		}
		if len(segGot) != n || len(legGot) != n {
			return false
		}
		for i := range addrs {
			if segGot[i] != addrs[i] || legGot[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedWorkersByteIdentical(t *testing.T) {
	addrs := randomTrace(t, 22, 40_000)
	const seg = 7_000 // six segments: the pool is actually exercised
	opts := Options{Mode: Lossless, BufferAddrs: 900, SegmentAddrs: seg, Workers: 1}
	serialDir := t.TempDir()
	serialStats, err := WriteTrace(serialDir, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serialStats.Chunks != 6 {
		t.Fatalf("chunks = %d, want 6", serialStats.Chunks)
	}
	for _, workers := range []int{2, 8} {
		dir := t.TempDir()
		o := opts
		o.Workers = workers
		stats, err := WriteTrace(dir, addrs, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats != serialStats {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, stats, serialStats)
		}
		dirsEqual(t, serialDir, dir)
	}
}

func TestSegmentedEmptyTrace(t *testing.T) {
	dir := t.TempDir()
	stats, err := WriteTrace(dir, nil, Options{Mode: Lossless, SegmentAddrs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 0 {
		t.Fatalf("chunks = %d for empty trace, want 0", stats.Chunks)
	}
	for _, ra := range []int{-1, 2} {
		got, err := decodeWith(dir, ra)
		if err != nil {
			t.Fatalf("readahead=%d: %v", ra, err)
		}
		if len(got) != 0 {
			t.Fatalf("readahead=%d: empty trace decoded to %d addrs", ra, len(got))
		}
	}
}

func TestSegmentedMetadata(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteTrace(dir, randomTrace(t, 23, 3000), Options{
		Mode: Lossless, BufferAddrs: 200, SegmentAddrs: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.FormatVersion() != 2 {
		t.Fatalf("format version = %d, want 2", d.FormatVersion())
	}
	if d.SegmentAddrs() != 1000 {
		t.Fatalf("segment addrs = %d, want 1000", d.SegmentAddrs())
	}
	if d.Records() != 3 {
		t.Fatalf("records = %d, want 3", d.Records())
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "atc 2\n") {
		t.Fatalf("segmented MANIFEST = %q, want version 2", manifest)
	}
}

func TestSegmentedCorruptChunkSurfaces(t *testing.T) {
	// 40 segments with an early one missing: when the error surfaces, the
	// span workers still have dozens of segments to claim —
	// the early-termination interleaving that once risked a WaitGroup
	// Add-vs-Wait panic in produceLosslessSegmented.
	addrs := randomTrace(t, 24, 10_000)
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 100, SegmentAddrs: 250}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "2.bsc")); err != nil {
		t.Fatal(err)
	}
	for _, ra := range []int{-1, 1, 4} {
		_, err := decodeWith(dir, ra)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("readahead=%d: err = %v, want ErrCorrupt", ra, err)
		}
	}
}

func TestSegmentedEarlyCloseStopsPipeline(t *testing.T) {
	addrs := randomTrace(t, 26, 10_000)
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 100, SegmentAddrs: 250}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Abandon the decode with ~38 of 40 segments still pending: Close must
	// stop every span worker and in-flight segment decode without
	// deadlock or WaitGroup misuse.
	for i := 0; i < 100; i++ {
		if _, err := d.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(); err == nil || err == io.EOF {
		t.Fatalf("Decode after Close = %v, want error", err)
	}
}

// --- v1 back-compat golden traces (written by the pre-v2 code path) ---

func TestV1GoldenLosslessDecodes(t *testing.T) {
	want := goldenTrace(10_000)
	got, err := ReadTrace("testdata/v1-lossless")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("golden v1 lossless mismatch at %d", i)
		}
	}
	d, err := Open("testdata/v1-lossless", DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.FormatVersion() != 1 || d.SegmentAddrs() != 0 {
		t.Fatalf("golden metadata: version %d segment %d", d.FormatVersion(), d.SegmentAddrs())
	}
}

func TestV1GoldenLossyDecodes(t *testing.T) {
	want := goldenTrace(10_000)
	got, err := ReadTrace("testdata/v1-lossy")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(want))
	}
	// The first interval always becomes a chunk, so it must be bit exact.
	for i := 0; i < 1000; i++ {
		if got[i] != want[i] {
			t.Fatalf("golden v1 lossy first interval mismatch at %d", i)
		}
	}
}

func TestLegacyWriterReproducesV1Golden(t *testing.T) {
	// Today's writer must reproduce the checked-in golden traces byte for
	// byte at every worker count: the version-1 layouts come from the
	// pre-v2 code path and v2-lossless from the segmented writer as it
	// stood before the encode path was unified. The files, not a second
	// writer, are the reference for every Workers value.
	addrs := goldenTrace(10_000)
	for _, tc := range []struct {
		golden string
		opts   Options
	}{
		{"testdata/v1-lossless", Options{Mode: Lossless, BufferAddrs: 512, SegmentAddrs: -1}},
		{"testdata/v1-lossy", Options{Mode: Lossy, IntervalLen: 1000, BufferAddrs: 300, Epsilon: 0.1}},
		{"testdata/v2-lossless", Options{Mode: Lossless, BufferAddrs: 512, SegmentAddrs: 2500}},
	} {
		for _, workers := range []int{1, 2, 8} {
			opts := tc.opts
			opts.Workers = workers
			dir := t.TempDir()
			if _, err := WriteTrace(dir, addrs, opts); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.golden, workers, err)
			}
			dirsEqual(t, tc.golden, dir)
		}
	}
}

// --- version handling and corrupt-input hardening ---

// storeTrace writes a small legacy lossless trace with the "store" back
// end, whose INFO file is raw bytes — surgical corruption is then easy.
func storeTrace(t *testing.T, addrs []uint64) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{
		Mode: Lossless, Backend: "store", BufferAddrs: 4, SegmentAddrs: -1,
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestUnsupportedManifestVersionRejected(t *testing.T) {
	dir := storeTrace(t, []uint64{1, 2, 3})
	manifest := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	patched := bytes.Replace(data, []byte("atc 1"), []byte("atc 9"), 1)
	if err := os.WriteFile(manifest, patched, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, DecodeOptions{})
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ErrUnsupportedVersion must wrap ErrCorrupt (err = %v)", err)
	}
	// A Backend override must not bypass the version check.
	if _, err := Open(dir, DecodeOptions{Backend: "store"}); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("override err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestUnsupportedInfoVersionRejected(t *testing.T) {
	dir := storeTrace(t, []uint64{1, 2, 3})
	// Manifest passes (v1) but the INFO version byte says 9: the decoder
	// must reject it rather than mis-parse the records that follow.
	info := filepath.Join(dir, infoBase+".store")
	data, err := os.ReadFile(info)
	if err != nil {
		t.Fatal(err)
	}
	data[len(infoMagic)] = 9
	if err := os.WriteFile(info, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DecodeOptions{}); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestManifestInfoVersionMismatchRejected(t *testing.T) {
	dir := storeTrace(t, []uint64{1, 2, 3})
	manifest := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// "atc 2" is a supported version, but the INFO stream still says 1:
	// the two must agree for the trace to be trusted.
	patched := bytes.Replace(data, []byte("atc 1"), []byte("atc 2"), 1)
	if err := os.WriteFile(manifest, patched, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, DecodeOptions{})
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt version mismatch", err)
	}
	if errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("mismatch misreported as unsupported version: %v", err)
	}
}

func TestManifestMissingVersionRejected(t *testing.T) {
	dir := storeTrace(t, []uint64{1, 2, 3})
	manifest := filepath.Join(dir, manifestName)
	if err := os.WriteFile(manifest, []byte("mode lossless\nbackend store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptTrailerDoesNotPreallocate(t *testing.T) {
	dir := storeTrace(t, []uint64{1, 2, 3})
	info := filepath.Join(dir, infoBase+".store")
	data, err := os.ReadFile(info)
	if err != nil {
		t.Fatal(err)
	}
	// The trailer total is the final uvarint (one byte for total=3).
	// Replace it with 2^47: within the plausibility bound, but demanding
	// a petabyte-scale preallocation if DecodeAll trusted it.
	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], 1<<47)
	data = append(data[:len(data)-1], huge[:n]...)
	if err := os.WriteFile(info, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Must fail with ErrCorrupt after decoding the 3 real addresses —
	// without first allocating the 2^47-element slice (which would OOM
	// this test process long before the error).
	if _, err := d.DecodeAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestImplausibleInfoFieldsRejected(t *testing.T) {
	// Patch each address-count field in turn with a value beyond the
	// plausibility bound; Open must reject the trace up front.
	base := []uint64{1, 2, 3}
	var huge [binary.MaxVarintLen64]byte
	hugeLen := binary.PutUvarint(huge[:], (1<<48)+1)
	for fieldIdx, name := range []string{"interval length", "bytesort buffer"} {
		dir := storeTrace(t, base)
		info := filepath.Join(dir, infoBase+".store")
		data, err := os.ReadFile(info)
		if err != nil {
			t.Fatal(err)
		}
		// Fields start after magic+version+mode; walk fieldIdx uvarints.
		off := len(infoMagic) + 2
		for i := 0; i < fieldIdx; i++ {
			_, n := binary.Uvarint(data[off:])
			if n <= 0 {
				t.Fatalf("%s: cannot walk INFO fields", name)
			}
			off += n
		}
		_, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("%s: cannot parse target field", name)
		}
		patched := append([]byte{}, data[:off]...)
		patched = append(patched, huge[:hugeLen]...)
		patched = append(patched, data[off+n:]...)
		if err := os.WriteFile(info, patched, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// --- Create validation and error-path cleanup ---

func TestCreateUnknownModeLeavesNoDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := Create(dir, Options{Mode: Mode(9)}); err == nil {
		t.Fatal("Create with unknown mode succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("unknown mode left a stray directory (stat err = %v)", err)
	}
}

func TestCreateUnknownBackendLeavesNoDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := Create(dir, Options{Mode: Lossless, Backend: "nope"}); err == nil {
		t.Fatal("Create with unknown backend succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("unknown backend left a stray directory (stat err = %v)", err)
	}
}

func TestCreateChunkFailureCleansUpDirectory(t *testing.T) {
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		return nil, errInjected
	})
	dir := filepath.Join(t.TempDir(), "trace")
	_, err := Create(dir, Options{Mode: Lossless, SegmentAddrs: -1})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed Create left a stray directory (stat err = %v)", err)
	}
}

func TestCreateChunkFailureKeepsExistingDirectory(t *testing.T) {
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		return nil, errInjected
	})
	dir := t.TempDir() // pre-existing: Create must not remove it
	if _, err := Create(dir, Options{Mode: Lossless, SegmentAddrs: -1}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("pre-existing directory removed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Create left %d orphan files", len(entries))
	}
}

// failAfterWriter accepts limit bytes, then fails every further write; it
// records whether Close was called, standing in for the chunk file whose
// descriptor must not leak on error paths.
type failAfterWriter struct {
	limit  int
	n      int
	closed bool
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errInjected
	}
	w.n += len(p)
	return len(p), nil
}

func (w *failAfterWriter) Close() error {
	w.closed = true
	return nil
}

func TestLosslessCloseFailureClosesChunkFile(t *testing.T) {
	fw := &failAfterWriter{limit: 0} // the first flushed byte fails
	swapChunkHook(t, func(st store.Store, name string) (io.WriteCloser, error) {
		return fw, nil
	})
	c, err := Create(t.TempDir(), Options{Mode: Lossless, BufferAddrs: 16, SegmentAddrs: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := c.Code(i); err != nil {
			break // small buffers may surface the failure early; fine
		}
	}
	if err := c.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want injected failure", err)
	}
	if !fw.closed {
		t.Fatal("chunk file leaked: Close error path never closed it")
	}
}

func TestSegmentedCloseSurfacesWorkerError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c, err := Create(t.TempDir(), Options{
			Mode: Lossless, BufferAddrs: 50, SegmentAddrs: 500, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		injectChunkFailures(t, 1)
		addrs := randomTrace(t, 25, 3000)
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
