package core

// Tests of batched decode delivery (DecodeOptions.batchAddrs): delivery
// in batchAddrs-sized batches, through Decode's span workers or inline,
// must reproduce the trace for every format mode, every store backend and
// any batch size, including pathological ones.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"atc/internal/store"
)

// batchStores is the store matrix: every batching path must behave
// identically over a directory, a single-file archive and memory.
var batchStores = []string{"dir", "archive", "mem"}

// writeBatchTrace compresses addrs with the given options into the named
// store kind and returns the DecodeOptions locating it plus the path.
func writeBatchTrace(t *testing.T, kind string, addrs []uint64, opts Options) (string, DecodeOptions) {
	t.Helper()
	var dec DecodeOptions
	path := t.TempDir()
	switch kind {
	case "dir":
	case "archive":
		path = filepath.Join(path, "t.atc")
		opts.Archive = true
	case "mem":
		ms := store.NewMem()
		opts.Store = ms
		dec.Store = ms
	default:
		t.Fatalf("unknown store kind %q", kind)
	}
	if _, err := WriteTrace(path, addrs, opts); err != nil {
		t.Fatal(err)
	}
	return path, dec
}

// TestBatchedDeliveryByteIdentical checks every delivery path against an
// oracle that does not share its code: the raw input for lossless traces,
// and for lossy ones (whose decoded form differs from the input) the
// random-access materialize path, DecodeRange(0, total). The paths are a
// Decode loop through the span workers at several depths and
// through the inline decode (Readahead < 0), each at many batch sizes,
// DecodeAll at the same settings, and random DecodeRange windows.
func TestBatchedDeliveryByteIdentical(t *testing.T) {
	addrs := rangeTrace()
	rng := rand.New(rand.NewSource(55))
	for _, m := range rangeModes {
		for _, kind := range batchStores {
			t.Run(m.name+"/"+kind, func(t *testing.T) {
				path, dec := writeBatchTrace(t, kind, addrs, m.opts)
				want := addrs
				if m.opts.Mode == Lossy {
					d, err := Open(path, dec)
					if err != nil {
						t.Fatal(err)
					}
					want, err = d.DecodeRange(0, d.TotalAddrs())
					d.Close()
					if err != nil {
						t.Fatal(err)
					}
					if len(want) != len(addrs) {
						t.Fatalf("reference decode: %d addresses, want %d", len(want), len(addrs))
					}
				}
				check := func(what string, got, want []uint64) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s: %d addresses, want %d", what, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: diverges at %d", what, i)
						}
					}
				}
				// Random batch sizes around the interesting boundaries: 1,
				// a prime, the span length itself, larger than any span, and
				// a handful of random draws.
				sizes := []int{1, 7, 977, 1000, 1500, 4096, len(addrs) + 1}
				for i := 0; i < 4; i++ {
					sizes = append(sizes, 1+rng.Intn(3000))
				}
				for _, batch := range sizes {
					for _, readahead := range []int{-1, 1, 3} {
						d := dec
						d.Readahead = readahead
						d.batchAddrs = batch
						what := fmt.Sprintf("batch=%d readahead=%d", batch, readahead)
						check(what+" Decode loop", openDecode(t, path, d, decodeLoop), want)
						check(what+" DecodeAll", decodeAllWith(t, path, d), want)
					}
				}
				d, err := Open(path, dec)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				n := int64(len(want))
				for i := 0; i < 20; i++ {
					from := rng.Int63n(n + 1)
					to := from + rng.Int63n(n-from+1)
					got, err := d.DecodeRange(from, to)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("DecodeRange(%d, %d)", from, to), got, want[from:to])
				}
			})
		}
	}
}

func decodeAllWith(t *testing.T, path string, opts DecodeOptions) []uint64 {
	t.Helper()
	return openDecode(t, path, opts, (*Decompressor).DecodeAll)
}

// openDecode opens the trace at path and decodes all of it with decode.
func openDecode(t *testing.T, path string, opts DecodeOptions, decode func(*Decompressor) ([]uint64, error)) []uint64 {
	t.Helper()
	d, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	out, err := decode(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fullDecodes are the two ways to decode a whole trace: a Decode loop,
// which runs Decode's span workers (or the inline decode), and DecodeAll,
// which decodes straight into its output.
var fullDecodes = map[string]func(*Decompressor) ([]uint64, error){
	"Decode loop": decodeLoop,
	"DecodeAll":   (*Decompressor).DecodeAll,
}

// TestBatchedSeekResume drives Decode's span workers through their
// restart path: seeks landing mid-batch, mid-span and on span boundaries must
// resume the stream exactly, for every mode and store.
func TestBatchedSeekResume(t *testing.T) {
	addrs := rangeTrace()
	n := int64(len(addrs))
	for _, m := range rangeModes {
		for _, kind := range batchStores {
			t.Run(m.name+"/"+kind, func(t *testing.T) {
				path, dec := writeBatchTrace(t, kind, addrs, m.opts)
				want := decodeAllWith(t, path, dec)
				d := dec
				d.Readahead = 2
				d.batchAddrs = 300 // several batches per 1000/1500-address span
				dd, err := Open(path, d)
				if err != nil {
					t.Fatal(err)
				}
				defer dd.Close()
				for _, at := range []int64{0, 299, 300, 301, 999, 1000, 1001, 1499, 1500, n - 1, 42} {
					if at >= n {
						continue
					}
					if err := dd.SeekTo(at); err != nil {
						t.Fatalf("Seek(%d): %v", at, err)
					}
					for i := int64(0); i < 700 && at+i < n; i++ {
						v, err := dd.Decode()
						if err != nil {
							t.Fatalf("Seek(%d) offset %d: %v", at, i, err)
						}
						if v != want[at+i] {
							t.Fatalf("Seek(%d): diverges at offset %d", at, i)
						}
					}
				}
			})
		}
	}
}

// TestBatchedSeekStress hammers the span workers' restart path with
// batches much smaller than a span: random seeks (forwards, backwards,
// mid-batch, mid-span) with a decode burst between them, each stopping
// the workers — span tasks mid-stream included. Under -race it also
// shakes the worker/consumer handoff and the batch-buffer free list.
func TestBatchedSeekStress(t *testing.T) {
	addrs := rangeTrace()
	n := int64(len(addrs))
	for _, m := range rangeModes {
		t.Run(m.name, func(t *testing.T) {
			path, dec := writeBatchTrace(t, "dir", addrs, m.opts)
			d := dec
			d.Readahead = 3
			d.batchAddrs = 257
			dd, err := Open(path, d)
			if err != nil {
				t.Fatal(err)
			}
			defer dd.Close()
			want := addrs
			if m.opts.Mode == Lossy {
				if want, err = dd.DecodeRange(0, n); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(77))
			for iter := 0; iter < 120; iter++ {
				at := rng.Int63n(n)
				if err := dd.SeekTo(at); err != nil {
					t.Fatalf("iter %d: Seek(%d): %v", iter, at, err)
				}
				burst := int64(1 + rng.Intn(4000))
				for i := int64(0); i < burst && at+i < n; i++ {
					v, err := dd.Decode()
					if err != nil {
						t.Fatalf("iter %d: Decode at %d: %v", iter, at+i, err)
					}
					if v != want[at+i] {
						t.Fatalf("iter %d: Seek(%d) diverges at offset %d", iter, at, i)
					}
				}
			}
			// A full decode after heavy seeking must still verify the
			// trailer count.
			if err := dd.SeekTo(0); err != nil {
				t.Fatal(err)
			}
			got, err := dd.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(got)) != n {
				t.Fatalf("final full decode: %d addresses, want %d", len(got), n)
			}
		})
	}
}

// TestBatchedPipelineSurfacesCorruptChunk: errors found by span tasks —
// a missing chunk, a segment that decodes short — must surface as
// ErrCorrupt through Decode's span workers and DecodeAll's, not
// hang or mis-decode.
func TestBatchedPipelineSurfacesCorruptChunk(t *testing.T) {
	addrs := rangeTrace()
	for _, m := range []struct {
		name string
		opts Options
	}{
		{"lossy", rangeModes[0].opts},
		{"segmented", rangeModes[2].opts},
	} {
		for _, damage := range []string{"garbage", "missing"} {
			t.Run(m.name+"/"+damage, func(t *testing.T) {
				dir := t.TempDir()
				if _, err := WriteTrace(dir, addrs, m.opts); err != nil {
					t.Fatal(err)
				}
				ds := store.OpenDir(dir)
				switch damage {
				case "garbage":
					if err := store.WriteBlob(ds, "3.bsc", []byte("not a backend stream")); err != nil {
						t.Fatal(err)
					}
				case "missing":
					if err := ds.Remove("3.bsc"); err != nil {
						t.Fatal(err)
					}
				}
				for what, decode := range fullDecodes {
					d, err := Open(dir, DecodeOptions{Readahead: 2, batchAddrs: 128})
					if err != nil {
						t.Fatal(err)
					}
					_, err = decode(d)
					d.Close()
					if err == nil || err == io.EOF {
						t.Fatalf("%s of corrupt trace succeeded", what)
					}
					if damage == "missing" && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s with missing chunk = %v, want ErrCorrupt", what, err)
					}
				}
			})
		}
	}
}

// TestBatchedReadaheadChunkReads confirms Decode's span workers, and
// DecodeAll's, still read each distinct chunk once per pass: imitations
// are served from the pinned source chunk, not re-decompressed per record.
func TestBatchedReadaheadChunkReads(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, rangeModes[0].opts) // lossy
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imitations == 0 {
		t.Fatal("trace has no imitations; test needs a mixed record sequence")
	}
	for what, decode := range fullDecodes {
		d, err := Open(dir, DecodeOptions{Readahead: 2, batchAddrs: 256})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decode(d); err != nil {
			t.Fatal(err)
		}
		if got, want := d.ChunkReads(), stats.Chunks; got != want {
			t.Fatalf("%s read %d chunks, want %d (distinct chunks)", what, got, want)
		}
		d.Close()
	}
}

// TestInlineDecodeLeavesSegmentsUncached: the inline decode
// (Readahead < 0) streams segments like the span workers do, and so does
// DecodeAll, so a sequential pass over a segmented trace reads every
// segment once and pins none of them in the chunk cache.
func TestInlineDecodeLeavesSegmentsUncached(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	stats, err := WriteTrace(dir, addrs, rangeModes[2].opts) // segmented
	if err != nil {
		t.Fatal(err)
	}
	for what, decode := range fullDecodes {
		d, err := Open(dir, DecodeOptions{Readahead: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decode(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("inline %s: %d addresses, want %d", what, len(got), len(addrs))
		}
		if n := d.ChunkReads(); n != stats.Chunks {
			t.Fatalf("inline %s read %d chunks, want %d (one per segment)", what, n, stats.Chunks)
		}
		if st := d.cache.Stats(); st.ResidentChunks != 0 {
			t.Fatalf("inline %s left %d segments in the cache, want 0", what, st.ResidentChunks)
		}
		d.Close()
	}
}

// TestBatchBufferRecycling drains a segmented trace through a Decode loop
// and checks Decode's span workers return their batch buffers to the free
// list (DecodeAll decodes straight into its output and uses none).
func TestBatchBufferRecycling(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, rangeModes[2].opts); err != nil { // segmented
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{Readahead: 2, batchAddrs: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for {
		if _, err := d.Decode(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if d.batchFree == nil {
		t.Fatal("batched decode left no free list")
	}
	if len(d.batchFree) == 0 {
		t.Fatal("no batch buffers were recycled over a full decode")
	}
	if buf := <-d.batchFree; cap(buf) != 200 {
		t.Fatalf("recycled buffer capacity %d, want batchAddrs (200)", cap(buf))
	}
}

// TestWithBatchAddrsDefault pins the default resolution: unset batchAddrs
// becomes DefaultBatchAddrs, clamped to the trace's stride (a batch never
// spans records, so larger buffers would only be waste).
func TestWithBatchAddrsDefault(t *testing.T) {
	addrs := rangeTrace()
	segDir := t.TempDir()
	if _, err := WriteTrace(segDir, addrs, rangeModes[2].opts); err != nil { // 1500-address segments
		t.Fatal(err)
	}
	d, err := Open(segDir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.opts.batchAddrs != 1500 {
		t.Fatalf("segmented default batchAddrs = %d, want clamp to segment length 1500", d.opts.batchAddrs)
	}
	d.Close()
	legacyDir := t.TempDir()
	if _, err := WriteTrace(legacyDir, addrs, rangeModes[1].opts); err != nil { // legacy v1 stream
		t.Fatal(err)
	}
	d, err = Open(legacyDir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.opts.batchAddrs != DefaultBatchAddrs {
		t.Fatalf("legacy default batchAddrs = %d, want %d", d.opts.batchAddrs, DefaultBatchAddrs)
	}
}
