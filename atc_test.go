package atc_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"atc"
)

func TestPublicLosslessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 30))
	}
	dir := t.TempDir()
	stats, err := atc.Compress(dir, addrs, atc.WithBufferAddrs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != atc.Lossless || stats.TotalAddrs != int64(len(addrs)) {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := atc.Decompress(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestPublicLossyOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 10_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 12))
	}
	dir := t.TempDir()
	stats, err := atc.Compress(dir, addrs,
		atc.WithMode(atc.Lossy),
		atc.WithIntervalLen(1000),
		atc.WithBufferAddrs(500),
		atc.WithEpsilon(0.1),
		atc.WithTableCapacity(16),
		atc.WithBackend("bsc"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != atc.Lossy {
		t.Fatalf("mode = %v", stats.Mode)
	}
	if stats.Intervals != 10 {
		t.Fatalf("intervals = %d", stats.Intervals)
	}
	got, err := atc.Decompress(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(addrs) {
		t.Fatalf("length %d", len(got))
	}
}

func TestPublicStreamingReader(t *testing.T) {
	dir := t.TempDir()
	addrs := []uint64{10, 20, 30, 40, 50}
	if _, err := atc.Compress(dir, addrs, atc.WithBufferAddrs(2)); err != nil {
		t.Fatal(err)
	}
	r, err := atc.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Mode() != atc.Lossless || r.TotalAddrs() != 5 {
		t.Fatalf("metadata: %v %d", r.Mode(), r.TotalAddrs())
	}
	var got []uint64
	for {
		v, err := r.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if fmt.Sprint(got) != fmt.Sprint(addrs) {
		t.Fatalf("got %v", got)
	}
}

func TestPublicWithoutTranslations(t *testing.T) {
	var addrs []uint64
	for p := 0; p < 4; p++ {
		base := uint64(p) << 33
		for i := 0; i < 1000; i++ {
			addrs = append(addrs, base+uint64(i%400))
		}
	}
	dir := t.TempDir()
	stats, err := atc.Compress(dir, addrs,
		atc.WithMode(atc.Lossy), atc.WithIntervalLen(1000), atc.WithBufferAddrs(500))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imitations == 0 {
		t.Skip("no imitations to ablate")
	}
	with, err := atc.Decompress(dir)
	if err != nil {
		t.Fatal(err)
	}
	without, err := atc.Decompress(dir, atc.WithoutTranslations())
	if err != nil {
		t.Fatal(err)
	}
	fw := footprint(with)
	fo := footprint(without)
	if fo >= fw {
		t.Fatalf("translation ablation footprint %d >= translated %d", fo, fw)
	}
}

func footprint(addrs []uint64) int {
	m := map[uint64]struct{}{}
	for _, a := range addrs {
		m[a] = struct{}{}
	}
	return len(m)
}

func TestPublicBitsPerAddress(t *testing.T) {
	dir := t.TempDir()
	addrs := make([]uint64, 5000)
	if _, err := atc.Compress(dir, addrs, atc.WithBufferAddrs(1000)); err != nil {
		t.Fatal(err)
	}
	bpa, err := atc.BitsPerAddress(dir, int64(len(addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if bpa <= 0 {
		t.Fatalf("bpa = %v", bpa)
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := atc.NewReader(t.TempDir()); err == nil {
		t.Fatal("NewReader on empty dir succeeded")
	}
	dir := t.TempDir()
	if _, err := atc.Compress(dir, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := atc.NewWriter(dir); err == nil {
		t.Fatal("NewWriter over existing trace succeeded")
	}
}

func TestPublicWorkersAndReadahead(t *testing.T) {
	// Intervals with different footprint sizes: each becomes its own chunk,
	// so the worker pool actually runs.
	rng := rand.New(rand.NewSource(12))
	var addrs []uint64
	for p := 0; p < 8; p++ {
		footprint := 64 << uint(p)
		base := uint64(p) << 32
		for i := 0; i < 1500; i++ {
			addrs = append(addrs, base+uint64(rng.Intn(footprint)))
		}
	}
	opts := func(workers int) []atc.Option {
		return []atc.Option{
			atc.WithMode(atc.Lossy),
			atc.WithIntervalLen(1500),
			atc.WithBufferAddrs(400),
			atc.WithWorkers(workers),
		}
	}
	serialDir := t.TempDir()
	serialStats, err := atc.Compress(serialDir, addrs, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := atc.Decompress(serialDir, atc.WithReadahead(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		dir := t.TempDir()
		stats, err := atc.Compress(dir, addrs, opts(workers)...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats != serialStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, serialStats)
		}
		got, err := atc.Decompress(dir, atc.WithReadahead(4))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: decoded %d addrs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: decoded stream diverges at %d", workers, i)
			}
		}
	}
}

func TestPublicArchiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	path := filepath.Join(t.TempDir(), "trace.atc")
	w, err := atc.CreateArchive(path, atc.WithBufferAddrs(500), atc.WithSegmentAddrs(4000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Both the explicit archive opener and the auto-detecting reader
	// must decode the file.
	for _, open := range []func() (*atc.Reader, error){
		func() (*atc.Reader, error) { return atc.OpenArchive(path) },
		func() (*atc.Reader, error) { return atc.NewReader(path) },
	} {
		r, err := open()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.DecodeAll()
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if len(got) != len(addrs) {
			t.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
	}
	if bpa, err := atc.BitsPerAddress(path, int64(len(addrs))); err != nil || bpa <= 0 {
		t.Fatalf("archive BitsPerAddress = %v, %v", bpa, err)
	}
}

func TestPublicMemStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	addrs := make([]uint64, 10_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 22))
	}
	mem := atc.NewMemStore()
	if _, err := atc.Compress("in-memory", addrs,
		atc.WithStore(mem), atc.WithMode(atc.Lossy),
		atc.WithIntervalLen(2000), atc.WithBufferAddrs(300)); err != nil {
		t.Fatal(err)
	}
	got, err := atc.Decompress("in-memory", atc.WithReadStore(mem))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(addrs) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
	}
}

func TestPublicOpenArchiveRejectsDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := atc.Compress(dir, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := atc.OpenArchive(dir); err == nil {
		t.Fatal("OpenArchive on a directory trace succeeded")
	}
}

// TestPublicRemoteReader covers the URL form of NewReader: a segmented
// archive hosted behind a Range-honoring HTTP server must decode — full
// and ranged — byte-identically to the local file, with a shared chunk
// cache deduplicating decompressions across two pooled readers.
func TestPublicRemoteReader(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	addrs := make([]uint64, 30_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	path := filepath.Join(t.TempDir(), "trace.atc")
	w, err := atc.CreateArchive(path, atc.WithBufferAddrs(500), atc.WithSegmentAddrs(4000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, path)
	}))
	defer srv.Close()

	local, err := atc.NewReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	shared := atc.NewSharedChunkCacheBytes(1 << 20).ForTrace("trace")
	var remote [2]*atc.Reader
	for i := range remote {
		r, err := atc.NewReader(srv.URL, atc.WithChunkCache(shared))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		remote[i] = r
	}
	want, err := local.DecodeRange(7_000, 13_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range remote {
		got, err := r.DecodeRange(7_000, 13_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("remote reader %d: %d addrs, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("remote reader %d diverges at %d", i, j)
			}
		}
	}
	// The window [7000, 13000) straddles segments 1..3: three chunk
	// decompressions across the pool, the second reader fully cache-fed.
	if n := remote[0].ChunkReads() + remote[1].ChunkReads(); n != 3 {
		t.Fatalf("pooled chunk reads = %d, want 3 (shared cache)", n)
	}
}
