package core

// Differential tests of DecodeAll, which decodes straight into its output
// with up to Readahead spans at once: it must give what a Decode loop and
// a whole-trace DecodeRange give, from any position, stop exactly at a
// corrupt span and read no more chunks than a Decode loop.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"atc/internal/bsc"
	"atc/internal/store"
)

// decodeAllTraces returns the traces the DecodeAll tests run on, each in
// its own memory store: the three goldens and a version-2 lossy trace.
func decodeAllTraces(t *testing.T) map[string]store.Store {
	t.Helper()
	traces := map[string]store.Store{}
	for _, dir := range goldenDirs {
		st := store.NewMem()
		if err := store.CopyAll(st, store.OpenDir(dir)); err != nil {
			t.Fatal(err)
		}
		traces[dir] = st
	}
	traces["v2-lossy"] = v2LossyTrace(t)
	return traces
}

// v2LossyTrace writes rangeTrace as a lossy trace and rewrites it to
// format version 2, which the writer only uses for segmented lossless
// traces: the INFO gets version 2 and a zero segment length, and the
// MANIFEST says "atc 2".
func v2LossyTrace(t *testing.T) store.Store {
	t.Helper()
	st := store.NewMem()
	if _, err := WriteTrace("", rangeTrace(), Options{Mode: Lossy, IntervalLen: 1000,
		BufferAddrs: 200, Backend: "bsc", Store: st}); err != nil {
		t.Fatal(err)
	}
	blob, err := store.ReadBlob(st, "INFO.bsc")
	if err != nil {
		t.Fatal(err)
	}
	info, err := bsc.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, mode, then the interval length and bytesort buffer
	// varints (1000 and 200 take two bytes each).
	if string(info[:4]) != infoMagic || info[4] != infoVersion1 || Mode(info[5]) != Lossy {
		t.Fatalf("unexpected INFO header %x", info[:6])
	}
	v2 := append(append(slices.Clone(info[:10]), 0), info[10:]...)
	v2[4] = infoVersion2
	if blob, err = bsc.Compress(v2); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteBlob(st, "INFO.bsc", blob); err != nil {
		t.Fatal(err)
	}
	manifest, err := store.ReadBlob(st, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	manifest = bytes.Replace(manifest, []byte("atc 1\n"), []byte("atc 2\n"), 1)
	if err := store.WriteBlob(st, manifestName, manifest); err != nil {
		t.Fatal(err)
	}
	d, err := Open("", DecodeOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.FormatVersion() != infoVersion2 || d.Mode() != Lossy {
		t.Fatalf("rewritten trace is version %d, mode %v", d.FormatVersion(), d.Mode())
	}
	return st
}

// decodeLoop drains d through Decode and returns the addresses before
// the error that ended it (nil for io.EOF).
func decodeLoop(d *Decompressor) ([]uint64, error) {
	var out []uint64
	for {
		v, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}

// checkAtEnd asserts a completely decoded d sits at the end of the trace,
// with Decode reporting io.EOF.
func checkAtEnd(t *testing.T, what string, d *Decompressor) {
	t.Helper()
	if d.Position() != d.TotalAddrs() {
		t.Fatalf("%s: Position %d, want TotalAddrs %d", what, d.Position(), d.TotalAddrs())
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("%s: Decode after the end = %v, want io.EOF", what, err)
	}
}

func TestDecodeAllMatchesDecodeAndRange(t *testing.T) {
	for name, st := range decodeAllTraces(t) {
		for _, ra := range []int{-1, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/readahead=%d", name, ra), func(t *testing.T) {
				open := func() *Decompressor {
					d, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: 64})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { d.Close() })
					return d
				}
				d := open()
				want, err := decodeLoop(d)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(want)) != d.TotalAddrs() || len(want) == 0 {
					t.Fatalf("Decode loop: %d addresses, trailer says %d", len(want), d.TotalAddrs())
				}
				rng, err := open().DecodeRange(0, d.TotalAddrs())
				if err != nil || !slices.Equal(rng, want) {
					t.Fatalf("DecodeRange(0, total) differs from the Decode loop (err %v)", err)
				}

				d = open()
				got, err := d.DecodeAll()
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("DecodeAll from 0 differs from the Decode loop (err %v)", err)
				}
				checkAtEnd(t, "DecodeAll from 0", d)

				// After a partial Decode (mid-batch, and past a span end).
				total := len(want)
				for _, k := range []int{1, 100, total / 2, total - 1} {
					d = open()
					for i := 0; i < k; i++ {
						if _, err := d.Decode(); err != nil {
							t.Fatal(err)
						}
					}
					got, err := d.DecodeAll()
					if err != nil || !slices.Equal(got, want[k:]) {
						t.Fatalf("DecodeAll after %d Decodes differs (err %v)", k, err)
					}
					checkAtEnd(t, fmt.Sprintf("DecodeAll after %d Decodes", k), d)
				}

				// After SeekTo, including a seek back over decoded addresses.
				d = open()
				for _, pos := range []int{total / 3, 7, total, 0, total - 3} {
					if err := d.SeekTo(int64(pos)); err != nil {
						t.Fatal(err)
					}
					got, err := d.DecodeAll()
					if err != nil || !slices.Equal(got, want[pos:]) {
						t.Fatalf("DecodeAll after SeekTo(%d) differs (err %v)", pos, err)
					}
					checkAtEnd(t, fmt.Sprintf("DecodeAll after SeekTo(%d)", pos), d)
				}
			})
		}
	}
}

// TestDecodeAllStopsAtCorruptChunk truncates the middle chunk of every
// trace: DecodeAll must return exactly the addresses before the first
// span that reads it, with an ErrCorrupt error that later Decode calls
// repeat, and leave no goroutine behind.
func TestDecodeAllStopsAtCorruptChunk(t *testing.T) {
	for name, intact := range decodeAllTraces(t) {
		for _, ra := range []int{-1, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/readahead=%d", name, ra), func(t *testing.T) {
				ref, err := Open("", DecodeOptions{Store: intact})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.DecodeAll()
				if err != nil {
					t.Fatal(err)
				}
				var ids []int
				for _, sp := range ref.ChunkIndex() {
					if !sp.Imitation {
						ids = append(ids, sp.ChunkID)
					}
				}
				bad := ids[len(ids)/2]
				var cut int64 = -1
				for _, sp := range ref.ChunkIndex() {
					if sp.ChunkID == bad && cut < 0 {
						cut = sp.Start
					}
				}
				name := ref.ChunkBlobName(bad)
				ref.Close()

				st := store.NewMem()
				if err := store.CopyAll(st, intact); err != nil {
					t.Fatal(err)
				}
				blob, err := store.ReadBlob(st, name)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.WriteBlob(st, name, blob[:len(blob)/2]); err != nil {
					t.Fatal(err)
				}
				goroutines := runtime.NumGoroutine()
				d, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: 64})
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.DecodeAll()
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("DecodeAll with chunk %d cut short: err = %v, want ErrCorrupt", bad, err)
				}
				if !slices.Equal(got, want[:cut]) {
					t.Fatalf("DecodeAll returned %d addresses, want the %d before chunk %d's span", len(got), cut, bad)
				}
				for i := 0; i < 2; i++ {
					if _, again := d.Decode(); again != err {
						t.Fatalf("Decode after the failed DecodeAll = %v, want %v", again, err)
					}
				}
				d.Close()
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the failed decode, %d before", runtime.NumGoroutine(), goroutines)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// phaseTrace builds a lossy trace of intervals of intervalLen addresses,
// interval k drawn from phase seq[k]. Phases have footprints of different
// sizes, so the first interval of each phase is stored as a chunk and
// later ones imitate it.
func phaseTrace(seq []int, intervalLen int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	var addrs []uint64
	for _, p := range seq {
		footprint := 16 << uint(p)
		base := uint64(p) << 40
		for i := 0; i < intervalLen; i++ {
			addrs = append(addrs, base+uint64(rng.Intn(footprint))<<6)
		}
	}
	return addrs
}

// TestDecodeAllChunkReadsWithinCache pins DecodeAll's span groups on
// traces whose imitations replay more chunks than the private cache
// holds: DecodeAll must read no more chunks than a Decode loop at the
// same Readahead. Each phase imitated right after its chunk needs the
// group cap: a group of every span loads all 12 chunks first and evicts
// four before their imitations run. The second sequence needs the cached
// chunks a group replays marked recently used first: loading the
// group's new chunks would evict them.
func TestDecodeAllChunkReadsWithinCache(t *testing.T) {
	for _, seq := range [][]int{
		{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 10, 2, 3, 4, 5, 6, 7, 0, 8, 9, 10},
	} {
		st := store.NewMem()
		if _, err := WriteTrace("", phaseTrace(seq, 2000), Options{Mode: Lossy, IntervalLen: 2000,
			BufferAddrs: 500, Store: st}); err != nil {
			t.Fatal(err)
		}
		for _, ra := range []int{1, 2, 4} {
			loop, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: 256})
			if err != nil {
				t.Fatal(err)
			}
			replayed := map[int]bool{}
			for _, sp := range loop.ChunkIndex() {
				if sp.Imitation {
					replayed[sp.ChunkID] = true
				}
			}
			if len(replayed) <= privateCacheChunks {
				t.Fatalf("%v: imitations replay %d chunks, want more than %d", seq, len(replayed), privateCacheChunks)
			}
			want, err := decodeLoop(loop)
			if err != nil {
				t.Fatal(err)
			}
			loop.Close()
			all, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: 256})
			if err != nil {
				t.Fatal(err)
			}
			got, err := all.DecodeAll()
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%v, readahead %d: DecodeAll differs from the Decode loop (err %v)", seq, ra, err)
			}
			if all.ChunkReads() > loop.ChunkReads() {
				t.Fatalf("%v, readahead %d: DecodeAll read %d chunks, the Decode loop %d",
					seq, ra, all.ChunkReads(), loop.ChunkReads())
			}
			all.Close()
		}
	}
}

// TestDecodeAllRejectsLongChunk swaps the short last segment of a
// segmented trace for a full one: DecodeAll streams that segment into its
// output and must fail, as a Decode loop and DecodeRange do, when the
// chunk goes on past the index's count, not return the first addresses.
// The last segment holds 400 addresses, two whole bytesort buffers, so
// only a read past them meets the excess.
func TestDecodeAllRejectsLongChunk(t *testing.T) {
	st := store.NewMem()
	if _, err := WriteTrace("", rangeTrace()[:10900], Options{Mode: Lossless, SegmentAddrs: 1500,
		BufferAddrs: 200, Store: st}); err != nil {
		t.Fatal(err)
	}
	d, err := Open("", DecodeOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	index := d.ChunkIndex()
	first, last := d.ChunkBlobName(index[0].ChunkID), d.ChunkBlobName(index[len(index)-1].ChunkID)
	d.Close()
	blob, err := store.ReadBlob(st, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteBlob(st, last, blob); err != nil {
		t.Fatal(err)
	}
	decodes := map[string]func(*Decompressor) ([]uint64, error){
		"DecodeRange": func(d *Decompressor) ([]uint64, error) { return d.DecodeRange(0, d.TotalAddrs()) },
	}
	maps.Copy(decodes, fullDecodes)
	for _, ra := range []int{-1, 2} {
		for what, decode := range decodes {
			d, err := Open("", DecodeOptions{Store: st, Readahead: ra})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decode(d); !errors.Is(err, ErrCorrupt) {
				t.Errorf("readahead %d: %s over a long last chunk: err = %v, want ErrCorrupt", ra, what, err)
			}
			d.Close()
		}
	}
}

// TestDecodeAllAfterDecodeReadsNoChunkTwice runs DecodeAll after k Decode
// calls, k = 10 and k just past the end of the first span (half the trace
// for the one-span v1 stream): it must read no more chunks than a
// DecodeAll from 0 on a fresh reader at the same settings, so the spans
// Decode's workers already opened are finished, not read again. Default
// batches cover a whole span, so workers run furthest ahead; 64-address
// batches leave them mid-span.
func TestDecodeAllAfterDecodeReadsNoChunkTwice(t *testing.T) {
	traces := decodeAllTraces(t)
	segmented := store.NewMem()
	opts := rangeModes[2].opts
	opts.Store = segmented
	if _, err := WriteTrace("", rangeTrace(), opts); err != nil {
		t.Fatal(err)
	}
	traces["segmented"] = segmented
	for name, st := range traces {
		for _, batch := range []int{0, 64} {
			for _, ra := range []int{-1, 1, 2, 4} {
				t.Run(fmt.Sprintf("%s/batch=%d/readahead=%d", name, batch, ra), func(t *testing.T) {
					open := func() *Decompressor {
						d, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: batch})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { d.Close() })
						return d
					}
					fresh := open()
					want, err := fresh.DecodeAll()
					if err != nil {
						t.Fatal(err)
					}
					index := fresh.ChunkIndex()
					past := int(index[0].End) + 1
					if len(index) == 1 {
						past = len(want) / 2
					}
					for _, k := range []int{10, past} {
						d := open()
						for i := 0; i < k; i++ {
							if _, err := d.Decode(); err != nil {
								t.Fatal(err)
							}
						}
						got, err := d.DecodeAll()
						if err != nil || !slices.Equal(got, want[k:]) {
							t.Fatalf("DecodeAll after %d Decodes differs (err %v)", k, err)
						}
						if d.ChunkReads() > fresh.ChunkReads() {
							t.Fatalf("DecodeAll after %d Decodes read %d chunks, from 0 on a fresh reader %d",
								k, d.ChunkReads(), fresh.ChunkReads())
						}
					}
				})
			}
		}
	}
}

// TestCloseStopsSpanWorkers closes a reader while Decode's workers have
// spans in flight, directly after partial Decode calls and after a SeekTo
// that restarted them: every worker must exit.
func TestCloseStopsSpanWorkers(t *testing.T) {
	for name, st := range decodeAllTraces(t) {
		for _, ra := range []int{-1, 1, 2, 4} {
			for _, seek := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/readahead=%d/seek=%v", name, ra, seek), func(t *testing.T) {
					goroutines := runtime.NumGoroutine()
					d, err := Open("", DecodeOptions{Store: st, Readahead: ra, batchAddrs: 64})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 100; i++ {
						if _, err := d.Decode(); err != nil {
							t.Fatal(err)
						}
					}
					if seek {
						if err := d.SeekTo(d.TotalAddrs() / 3); err != nil {
							t.Fatal(err)
						}
						if _, err := d.Decode(); err != nil {
							t.Fatal(err)
						}
					}
					if ra > 0 && runtime.NumGoroutine() <= goroutines {
						t.Fatalf("no span worker in flight before Close (%d goroutines, %d at the start)",
							runtime.NumGoroutine(), goroutines)
					}
					d.Close()
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), goroutines)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}
