package core

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"atc/internal/histogram"
)

func losslessOpts() Options {
	return Options{Mode: Lossless, BufferAddrs: 1000}
}

func lossyOpts(interval int) Options {
	return Options{Mode: Lossy, IntervalLen: interval, BufferAddrs: 500, Epsilon: 0.1}
}

func compressDecode(t *testing.T, addrs []uint64, opts Options) ([]uint64, Stats) {
	t.Helper()
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, opts)
	if err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	return got, stats
}

func TestLosslessRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 12_345)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	got, stats := compressDecode(t, addrs, losslessOpts())
	if len(got) != len(addrs) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d = %#x, want %#x", i, got[i], addrs[i])
		}
	}
	if stats.Chunks != 1 || stats.TotalAddrs != int64(len(addrs)) {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLosslessEmptyTrace(t *testing.T) {
	got, _ := compressDecode(t, nil, losslessOpts())
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d addrs", len(got))
	}
}

func TestLossyPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 10_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4096))
	}
	got, _ := compressDecode(t, addrs, lossyOpts(1000))
	if len(got) != len(addrs) {
		t.Fatalf("lossy decode length %d, want %d", len(got), len(addrs))
	}
}

func TestLossyStableTraceCreatesFewChunks(t *testing.T) {
	// A stationary random trace: all intervals look alike, so after the
	// first chunk everything should be imitation (the paper's Figure 8
	// scenario).
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 16))
	}
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, lossyOpts(2000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Intervals != 10 {
		t.Fatalf("intervals = %d, want 10", stats.Intervals)
	}
	if stats.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1 (stable trace)", stats.Chunks)
	}
	if stats.Imitations != 9 {
		t.Fatalf("imitations = %d, want 9", stats.Imitations)
	}
}

func TestLossyPhaseChangeCreatesChunks(t *testing.T) {
	// Two clearly different phases alternating: two chunks, rest imitations.
	var addrs []uint64
	rng := rand.New(rand.NewSource(4))
	for p := 0; p < 8; p++ {
		base := uint64(0)
		if p%2 == 1 {
			base = 1 << 40 // different high bytes => different histograms
		}
		for i := 0; i < 1000; i++ {
			addrs = append(addrs, base+uint64(rng.Intn(256)))
		}
	}
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, lossyOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks > 3 {
		t.Fatalf("chunks = %d for a 2-phase trace, want <= 3", stats.Chunks)
	}
	if stats.Imitations < 5 {
		t.Fatalf("imitations = %d, want >= 5", stats.Imitations)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(addrs) {
		t.Fatalf("length %d, want %d", len(got), len(addrs))
	}
}

func TestLossyTranslationRestoresFootprint(t *testing.T) {
	// The myopic-interval defence: intervals drawn from disjoint address
	// regions with identical structure must decode to *different* regions,
	// not copies of the first chunk.
	var addrs []uint64
	for p := 0; p < 5; p++ {
		base := uint64(p) << 32
		for i := 0; i < 1000; i++ {
			addrs = append(addrs, base+uint64(i%500))
		}
	}
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, lossyOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imitations == 0 {
		t.Skip("no imitation happened; translation not exercised")
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]struct{}{}
	for _, a := range got {
		distinct[a] = struct{}{}
	}
	origDistinct := map[uint64]struct{}{}
	for _, a := range addrs {
		origDistinct[a] = struct{}{}
	}
	lo, hi := len(origDistinct)*8/10, len(origDistinct)*12/10
	if len(distinct) < lo || len(distinct) > hi {
		t.Fatalf("decoded footprint %d, original %d (outside ±20%%)", len(distinct), len(origDistinct))
	}
}

func TestIgnoreTranslationsShrinksFootprint(t *testing.T) {
	// Figure 4's ablation: without translation, imitated intervals replay
	// the chunk verbatim, collapsing the footprint.
	var addrs []uint64
	for p := 0; p < 5; p++ {
		base := uint64(p) << 32
		for i := 0; i < 1000; i++ {
			addrs = append(addrs, base+uint64(i%500))
		}
	}
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, lossyOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imitations == 0 {
		t.Skip("no imitation happened")
	}
	dec, err := Open(dir, DecodeOptions{IgnoreTranslations: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	got, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]struct{}{}
	for _, a := range got {
		distinct[a] = struct{}{}
	}
	if len(distinct) >= 5*500*8/10 {
		t.Fatalf("without translation footprint = %d; expected collapse", len(distinct))
	}
}

func TestLossyPreservesSortedHistogramsPerInterval(t *testing.T) {
	// Invariant from §5.1: each decoded interval must have the same sorted
	// byte-histograms as... itself under translation; and for matched
	// intervals, close to the original interval's (distance < epsilon-ish).
	var addrs []uint64
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < 6; p++ {
		base := uint64(p) << 36
		for i := 0; i < 2000; i++ {
			addrs = append(addrs, base+uint64(rng.Intn(1024)))
		}
	}
	const L = 2000
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, lossyOpts(L)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p*L < len(addrs); p++ {
		orig := histogram.Compute(addrs[p*L : (p+1)*L])
		dec := histogram.Compute(got[p*L : (p+1)*L])
		if d := histogram.Distance(orig, dec); d > 0.25 {
			t.Fatalf("interval %d: sorted-histogram distance %v after lossy round trip", p, d)
		}
	}
}

func TestShortFinalIntervalIsChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	addrs := make([]uint64, 2_500) // 2 full intervals + 500 tail
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, lossyOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2500 {
		t.Fatalf("decoded %d addrs", len(got))
	}
	// Final 500 addresses must be exact (stored as a chunk).
	for i := 2000; i < 2500; i++ {
		if got[i] != addrs[i] {
			t.Fatalf("tail addr %d not exact", i)
		}
	}
	if stats.Chunks < 2 {
		t.Fatalf("chunks = %d; the short tail must be its own chunk", stats.Chunks)
	}
}

func TestCreateRefusesExistingTrace(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteTrace(dir, []uint64{1, 2, 3}, losslessOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, losslessOpts()); err == nil {
		t.Fatal("Create over an existing trace succeeded")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), DecodeOptions{}); err == nil {
		t.Fatal("Open on missing dir succeeded")
	}
}

func TestOpenCorruptINFO(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteTrace(dir, []uint64{1, 2, 3}, losslessOpts()); err != nil {
		t.Fatal(err)
	}
	// Truncate the INFO file.
	info := filepath.Join(dir, "INFO.bsc")
	data, err := os.ReadFile(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(info, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DecodeOptions{}); err == nil {
		t.Fatal("Open with truncated INFO succeeded")
	}
}

func TestMissingChunkDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	addrs := make([]uint64, 3000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(100))
	}
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, lossyOpts(1000)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "2.bsc")); err != nil {
		// Maybe only one chunk was created; then remove chunk 1.
		if err := os.Remove(filepath.Join(dir, "1.bsc")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ReadTrace(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := lossyOpts(1000)
	opts.Backend = "flate"
	if _, err := WriteTrace(dir, []uint64{1, 2, 3, 4}, opts); err != nil {
		t.Fatal(err)
	}
	// Open without specifying the backend: MANIFEST must provide it.
	dec, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	got, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d addrs", len(got))
	}
}

func TestAllBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	addrs := make([]uint64, 5000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 22))
	}
	for _, backend := range []string{"bsc", "flate", "store"} {
		for _, mode := range []Mode{Lossless, Lossy} {
			opts := Options{Mode: mode, Backend: backend, IntervalLen: 1000, BufferAddrs: 300}
			dir := t.TempDir()
			if _, err := WriteTrace(dir, addrs, opts); err != nil {
				t.Fatalf("%s/%v: %v", backend, mode, err)
			}
			got, err := ReadTrace(dir)
			if err != nil {
				t.Fatalf("%s/%v: %v", backend, mode, err)
			}
			if len(got) != len(addrs) {
				t.Fatalf("%s/%v: length %d", backend, mode, len(got))
			}
			if mode == Lossless {
				for i := range addrs {
					if got[i] != addrs[i] {
						t.Fatalf("%s lossless mismatch at %d", backend, i)
					}
				}
			}
		}
	}
}

func TestDecodeMetadata(t *testing.T) {
	dir := t.TempDir()
	opts := lossyOpts(1234)
	opts.Epsilon = 0.25
	if _, err := WriteTrace(dir, make([]uint64, 5000), opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	if dec.Mode() != Lossy || dec.IntervalLen() != 1234 || dec.Epsilon() != 0.25 {
		t.Fatalf("metadata: mode=%v L=%d eps=%v", dec.Mode(), dec.IntervalLen(), dec.Epsilon())
	}
	if dec.TotalAddrs() != 5000 {
		t.Fatalf("total = %d", dec.TotalAddrs())
	}
}

func TestBitsPerAddress(t *testing.T) {
	dir := t.TempDir()
	addrs := make([]uint64, 10_000) // all zeros: extremely compressible
	if _, err := WriteTrace(dir, addrs, losslessOpts()); err != nil {
		t.Fatal(err)
	}
	bpa, err := BitsPerAddress(dir, int64(len(addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if bpa <= 0 || bpa > 8 {
		t.Fatalf("BPA = %v for all-zero trace; expected (0, 8]", bpa)
	}
	if _, err := BitsPerAddress(dir, 0); err == nil {
		t.Fatal("BPA with zero addrs succeeded")
	}
}

func TestStreamingDecodeMatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 4000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 30))
	}
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, lossyOpts(1000)); err != nil {
		t.Fatal(err)
	}
	all, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	oneInterval := NewSharedChunkCacheBytes(1000 * 8).ForTrace("t")
	dec, err := Open(dir, DecodeOptions{ChunkCache: oneInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for i := 0; ; i++ {
		v, err := dec.Decode()
		if err == io.EOF {
			if i != len(all) {
				t.Fatalf("streaming ended at %d, DecodeAll had %d", i, len(all))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != all[i] {
			t.Fatalf("streaming addr %d mismatch", i)
		}
	}
}

func TestLosslessRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		dir, err := os.MkdirTemp("", "atcq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 64}); err != nil {
			return false
		}
		got, err := ReadTrace(dir)
		if err != nil {
			return false
		}
		if len(got) != len(addrs) {
			return false
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyLengthProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, int(n)+1)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 24))
		}
		dir, err := os.MkdirTemp("", "atcq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: 97, BufferAddrs: 31}); err != nil {
			return false
		}
		got, err := ReadTrace(dir)
		if err != nil {
			return false
		}
		return len(got) == len(addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
