package core

// Tests of the pooled backend decode units (getBackendReader /
// putBackendReader) and the streaming path for never-imitated lossy
// chunks: both are pure performance reroutes, so every test here pins
// byte-identity against the materializing paths they replace.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"atc/internal/store"
)

// mixedLossyTrace builds a lossy workload with both kinds of chunk: one
// stationary distribution (chunk 1 plus `imit` imitations of it)
// followed by `distinct` phases whose footprints differ by two orders of
// magnitude each — their sorted histograms are far beyond any epsilon,
// so every one becomes a chunk that is never an imitation source.
func mixedLossyTrace(intervalLen, imit, distinct int) []uint64 {
	rng := rand.New(rand.NewSource(99))
	addrs := make([]uint64, 0, (1+imit+distinct)*intervalLen)
	emit := func(footprint int) {
		for i := 0; i < intervalLen; i++ {
			addrs = append(addrs, uint64(rng.Intn(footprint)))
		}
	}
	for p := 0; p <= imit; p++ {
		emit(1 << 16)
	}
	for p := 0; p < distinct; p++ {
		emit(4 << uint(2*p))
	}
	return addrs
}

// TestNeverImitatedChunksStream pins the streaming reroute: over every
// store kind — directory, archive, memory and remote HTTP — the batched
// readahead decode of a lossy trace must be byte-identical to the
// synchronous decode, the never-imitated chunks must actually take the
// streaming path (counted by atc_decode_chunks_streamed_total), and they
// must stay out of the chunk cache while the imitated chunk stays in.
func TestNeverImitatedChunksStream(t *testing.T) {
	const (
		intervalLen = 2000
		imitations  = 3
		distinct    = 6
	)
	addrs := mixedLossyTrace(intervalLen, imitations, distinct)
	opts := Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 400}

	kinds := []string{"dir", "archive", "mem", "remote"}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			var (
				path string
				dec  DecodeOptions
			)
			wopts := opts
			switch kind {
			case "dir":
				path = filepath.Join(t.TempDir(), "trace")
			case "archive", "remote":
				path = filepath.Join(t.TempDir(), "trace.atc")
				wopts.Archive = true
			case "mem":
				ms := store.NewMem()
				wopts.Store = ms
				dec.Store = ms
				path = "mem"
			}
			st, err := WriteTrace(path, addrs, wopts)
			if err != nil {
				t.Fatal(err)
			}
			if st.Chunks != 1+distinct || st.Imitations != imitations {
				t.Fatalf("trace shape: %d chunks / %d imitations, want %d / %d",
					st.Chunks, st.Imitations, 1+distinct, imitations)
			}
			if kind == "remote" {
				file := path
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					http.ServeFile(w, r, file)
				}))
				defer srv.Close()
				path = srv.URL
			}

			sync := dec
			sync.Readahead = -1
			want := decodeAllWith(t, path, sync)
			if len(want) != len(addrs) {
				t.Fatalf("sync decode: %d addresses, want %d", len(want), len(addrs))
			}

			batched := dec
			batched.Readahead = 2
			d, err := Open(path, batched)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if len(d.imitated) != 1 {
				t.Fatalf("imitated set has %d chunks, want 1", len(d.imitated))
			}
			before := metChunksStreamed.Value()
			got, err := d.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if streamed := metChunksStreamed.Value() - before; streamed != distinct {
				t.Fatalf("streamed %d chunks, want %d", streamed, distinct)
			}
			if len(got) != len(want) {
				t.Fatalf("batched decode: %d addresses, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batched decode diverges from sync at %d", i)
				}
			}
			// The producer has delivered everything, so the cache is quiescent:
			// the imitated chunk (id 1) was pinned, the streamed ones never
			// entered.
			if _, ok := d.cache.Get(1); !ok {
				t.Fatal("imitated chunk 1 not cached after sequential decode")
			}
			for id := 2; id <= distinct+1; id++ {
				if _, ok := d.cache.Get(id); ok {
					t.Fatalf("never-imitated chunk %d polluted the cache", id)
				}
			}
		})
	}
}

// TestStreamedChunkRandomAccessUnaffected checks that the streaming
// reroute leaves random access alone: DecodeRange over a never-imitated
// chunk still materializes, pins and serves it from cache.
func TestStreamedChunkRandomAccessUnaffected(t *testing.T) {
	const intervalLen = 2000
	addrs := mixedLossyTrace(intervalLen, 2, 4)
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 400}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Spans 3..6 are the never-imitated chunks (ids 1..4).
	lo, hi := int64(3*intervalLen+100), int64(4*intervalLen-100)
	before := d.ChunkReads()
	if _, err := d.DecodeRange(lo, hi); err != nil {
		t.Fatal(err)
	}
	if n := d.ChunkReads() - before; n != 1 {
		t.Fatalf("range decode read %d chunks, want 1", n)
	}
	// Same window again: served from the pinned copy, no re-read.
	if _, err := d.DecodeRange(lo, hi); err != nil {
		t.Fatal(err)
	}
	if n := d.ChunkReads() - before; n != 1 {
		t.Fatalf("cached range re-read loaded %d chunks, want 1", n)
	}
}

// TestBackendReaderPoolRecycles drives the pooled decode unit directly:
// a unit released by readChunkFile must be handed back by the next
// acquisition (pointer-identical) and decode the next chunk correctly.
func TestBackendReaderPoolRecycles(t *testing.T) {
	const intervalLen = 2000
	addrs := mixedLossyTrace(intervalLen, 0, 3)
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 400}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.readerFree == nil {
		t.Fatal("Open did not create the reader pool")
	}

	first, err := d.readChunkFile(d.index[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.readerFree) != 1 {
		t.Fatalf("pool holds %d units after readChunkFile, want 1", len(d.readerFree))
	}
	unit := <-d.readerFree
	d.readerFree <- unit

	second, err := d.readChunkFile(d.index[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != intervalLen {
		t.Fatalf("recycled unit mis-decoded chunk 2 (len %d)", len(second))
	}
	reused := <-d.readerFree
	if reused != unit {
		t.Fatal("readChunkFile allocated a fresh unit instead of recycling")
	}
	d.readerFree <- reused

	// Re-decoding chunk 1 through the recycled unit must reproduce the
	// fresh decode exactly — no state bleed from chunk 2.
	again, err := d.readChunkFile(d.index[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatalf("recycled decode length %d, want %d", len(again), len(first))
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("recycled decode of chunk 0 diverges at %d", i)
		}
	}
}

// TestPoolOverflowDropsUnit checks the free list is bounded: returning
// more units than its capacity must neither block nor grow it.
func TestPoolOverflowDropsUnit(t *testing.T) {
	const intervalLen = 1000
	addrs := mixedLossyTrace(intervalLen, 0, 2)
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 200}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	n := cap(d.readerFree)
	for i := 0; i < n+3; i++ {
		pr, err := d.getBackendReader(depletedReader{})
		if err != nil {
			t.Fatal(err)
		}
		// Acquire fresh units without consuming them so each put after the
		// n-th finds the list full.
		defer d.putBackendReader(pr)
	}
	for i := 0; i < n+3; i++ {
		pr, err := d.getBackendReader(depletedReader{})
		if err != nil {
			t.Fatal(err)
		}
		d.putBackendReader(pr)
	}
	if len(d.readerFree) > n {
		t.Fatalf("pool grew past its bound: %d > %d", len(d.readerFree), n)
	}
}

// TestPoolSurvivesPipelineRestarts decodes the same trace repeatedly on
// one Decompressor through Seek(0): every pass must be byte-identical,
// with passes after the first fed by recycled decode units.
func TestPoolSurvivesPipelineRestarts(t *testing.T) {
	const intervalLen = 2000
	addrs := mixedLossyTrace(intervalLen, 2, 5)
	dir := filepath.Join(t.TempDir(), "trace")
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 400}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var first []uint64
	for round := 0; round < 3; round++ {
		if round > 0 {
			if err := d.SeekTo(0); err != nil {
				t.Fatal(err)
			}
		}
		got, err := d.DecodeAll()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = got
			if len(d.readerFree) == 0 {
				t.Fatal("no decode units parked after a full pass")
			}
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("round %d: %d addresses, want %d", round, len(got), len(first))
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("round %d diverges at %d", round, i)
			}
		}
	}
}
