package atc_test

// Property tests for the random-access API across every store backend ×
// every on-disk format mode: DecodeRange(a, b) must equal the matching
// slice of DecodeAll(), Seek must resume the stream anywhere (including
// backwards), and out-of-range requests must fail cleanly.

import (
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"atc"
)

const seekTestN = 24_000

func seekTestAddrs(t testing.TB) []uint64 {
	t.Helper()
	return generate(t, "429.mcf", seekTestN)
}

// seekTestModes are the three format shapes random access must cover.
var seekTestModes = []struct {
	name string
	opts []atc.Option
}{
	{"lossy", []atc.Option{atc.WithMode(atc.Lossy), atc.WithIntervalLen(2000), atc.WithBufferAddrs(400)}},
	{"legacy-lossless", []atc.Option{atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(-1), atc.WithBufferAddrs(400)}},
	{"segmented", []atc.Option{atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(3000), atc.WithBufferAddrs(400)}},
}

// seekTestStores builds the trace in each backend and yields an open
// function per store kind.
func seekTestStores(t *testing.T, addrs []uint64, opts []atc.Option) map[string]func() (*atc.Reader, error) {
	t.Helper()
	dir := t.TempDir()
	if _, err := atc.Compress(dir, addrs, opts...); err != nil {
		t.Fatal(err)
	}
	arc := filepath.Join(t.TempDir(), "trace.atc")
	aw, err := atc.CreateArchive(arc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	mem := atc.NewMemStore()
	mw, err := atc.NewWriter("mem", append(opts[:len(opts):len(opts)], atc.WithStore(mem))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return map[string]func() (*atc.Reader, error){
		"dir":     func() (*atc.Reader, error) { return atc.NewReader(dir) },
		"archive": func() (*atc.Reader, error) { return atc.OpenArchive(arc) },
		"mem":     func() (*atc.Reader, error) { return atc.NewReader("mem", atc.WithReadStore(mem)) },
	}
}

func TestDecodeRangePropertyAllStoresAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	addrs := seekTestAddrs(t)
	n := int64(len(addrs))
	for _, mode := range seekTestModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			stores := seekTestStores(t, addrs, mode.opts)
			for name, open := range stores {
				t.Run(name, func(t *testing.T) {
					ref, err := open()
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.DecodeAll()
					if err != nil {
						t.Fatal(err)
					}
					ref.Close()
					r, err := open()
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					rng := rand.New(rand.NewSource(2009))
					windows := [][2]int64{{0, 0}, {0, n}, {n, n}, {n - 1, n}}
					for i := 0; i < 16; i++ {
						a := rng.Int63n(n + 1)
						b := a + rng.Int63n(n+1-a)
						windows = append(windows, [2]int64{a, b})
					}
					// One Reader serves all windows in arbitrary order —
					// forward and backward jumps alike.
					for _, w := range windows {
						got, err := r.DecodeRange(w[0], w[1])
						if err != nil {
							t.Fatalf("DecodeRange(%d, %d): %v", w[0], w[1], err)
						}
						if int64(len(got)) != w[1]-w[0] {
							t.Fatalf("DecodeRange(%d, %d) returned %d addrs", w[0], w[1], len(got))
						}
						for i, v := range got {
							if v != want[w[0]+int64(i)] {
								t.Fatalf("DecodeRange(%d, %d) diverges at offset %d", w[0], w[1], i)
							}
						}
					}
					// Interleave: stream a little, range elsewhere, stream on.
					if _, err := r.Seek(0, io.SeekStart); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 100; i++ {
						if v, err := r.Decode(); err != nil || v != want[i] {
							t.Fatalf("stream at %d: %d, %v", i, v, err)
						}
					}
					if _, err := r.DecodeRange(n/2, n/2+50); err != nil {
						t.Fatal(err)
					}
					for i := 100; i < 200; i++ {
						if v, err := r.Decode(); err != nil || v != want[i] {
							t.Fatalf("stream resumed at %d: %d, %v", i, v, err)
						}
					}
				})
			}
		})
	}
}

func TestSeekPropertyAllStoresAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	addrs := seekTestAddrs(t)
	n := int64(len(addrs))
	for _, mode := range seekTestModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			stores := seekTestStores(t, addrs, mode.opts)
			for name, open := range stores {
				t.Run(name, func(t *testing.T) {
					r, err := open()
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					want, err := r.DecodeAll()
					if err != nil {
						t.Fatal(err)
					}
					// Random seek points — the reference Reader is reused, so
					// every seek after the DecodeAll above is backwards first.
					rng := rand.New(rand.NewSource(7))
					for i := 0; i < 12; i++ {
						at := rng.Int63n(n)
						pos, err := r.Seek(at, io.SeekStart)
						if err != nil {
							t.Fatalf("Seek(%d): %v", at, err)
						}
						if pos != at {
							t.Fatalf("Seek(%d) reported position %d", at, pos)
						}
						k := int64(50)
						if at+k > n {
							k = n - at
						}
						for j := int64(0); j < k; j++ {
							v, err := r.Decode()
							if err != nil {
								t.Fatalf("Decode after Seek(%d): %v", at, err)
							}
							if v != want[at+j] {
								t.Fatalf("Seek(%d) diverges at offset %d", at, j)
							}
						}
					}
					// Relative whence forms.
					if _, err := r.Seek(10, io.SeekStart); err != nil {
						t.Fatal(err)
					}
					if pos, err := r.Seek(5, io.SeekCurrent); err != nil || pos != 15 {
						t.Fatalf("SeekCurrent: pos %d, err %v", pos, err)
					}
					if pos, err := r.Seek(-n, io.SeekEnd); err != nil || pos != 0 {
						t.Fatalf("SeekEnd(-n): pos %d, err %v", pos, err)
					}
					// Error cases: past-EOF, before start, bad whence.
					if _, err := r.Seek(n+1, io.SeekStart); err == nil {
						t.Fatal("seek past EOF accepted")
					}
					if _, err := r.Seek(-1, io.SeekStart); err == nil {
						t.Fatal("negative seek accepted")
					}
					if _, err := r.Seek(1, io.SeekEnd); err == nil {
						t.Fatal("seek beyond end accepted")
					}
					if _, err := r.Seek(0, 42); err == nil {
						t.Fatal("bad whence accepted")
					}
					// Seeking exactly to the end is allowed and yields EOF.
					if pos, err := r.Seek(0, io.SeekEnd); err != nil || pos != n {
						t.Fatalf("Seek(end): pos %d, err %v", pos, err)
					}
					if _, err := r.Decode(); err != io.EOF {
						t.Fatalf("Decode at end = %v, want io.EOF", err)
					}
				})
			}
		})
	}
}

func TestReadAddrsAt(t *testing.T) {
	addrs := generate(t, "453.povray", 10_000)
	dir := t.TempDir()
	if _, err := atc.Compress(dir, addrs,
		atc.WithMode(atc.Lossy), atc.WithIntervalLen(1500), atc.WithBufferAddrs(300)); err != nil {
		t.Fatal(err)
	}
	r, err := atc.NewReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := r.DecodeRange(0, r.TotalAddrs())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, 256)
	n, err := r.ReadAddrsAt(buf, 4000)
	if err != nil || n != len(buf) {
		t.Fatalf("ReadAddrsAt = %d, %v", n, err)
	}
	for i, v := range buf {
		if v != want[4000+i] {
			t.Fatalf("ReadAddrsAt diverges at %d", i)
		}
	}
	// Short read at the tail ends with io.EOF.
	n, err = r.ReadAddrsAt(buf, r.TotalAddrs()-10)
	if err != io.EOF || n != 10 {
		t.Fatalf("tail ReadAddrsAt = %d, %v; want 10, io.EOF", n, err)
	}
	if n, err := r.ReadAddrsAt(buf, r.TotalAddrs()); n != 0 || err != io.EOF {
		t.Fatalf("ReadAddrsAt(end) = %d, %v; want 0, io.EOF", n, err)
	}
	for _, off := range []int64{-1, r.TotalAddrs() + 1} {
		if _, err := r.ReadAddrsAt(buf, off); !errors.Is(err, atc.ErrOutOfRange) {
			t.Fatalf("ReadAddrsAt(%d) err = %v, want ErrOutOfRange", off, err)
		}
	}
}

// TestSeekDuringReadaheadStress hammers the readahead restart path: a
// reader whose span workers are decoding ahead is seeked to random
// positions (forwards, backwards, mid-span) with a partial decode between
// seeks, for every mode. Each seek stops the workers — span tasks
// mid-stream included — and the next Decode restarts them at the new
// cursor; the decoded values must match the raw trace exactly. Run under
// -race this also shakes the worker/consumer handoff and the
// batch-buffer free list.
func TestSeekDuringReadaheadStress(t *testing.T) {
	addrs := seekTestAddrs(t)
	n := int64(len(addrs))
	for _, mode := range seekTestModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if _, err := atc.Compress(dir, addrs, mode.opts...); err != nil {
				t.Fatal(err)
			}
			// The reference is the decoded stream, not the raw input: lossy
			// imitation spans replay translated chunks, so only the decoded
			// form is stable across pipelines.
			want, err := atc.Decompress(dir, atc.WithReadahead(-1))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(want)) != n {
				t.Fatalf("reference decode: %d addresses, want %d", len(want), n)
			}
			r, err := atc.NewReader(dir, atc.WithReadahead(3))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rng := rand.New(rand.NewSource(77))
			for iter := 0; iter < 120; iter++ {
				at := rng.Int63n(n)
				if _, err := r.Seek(at, io.SeekStart); err != nil {
					t.Fatalf("iter %d: Seek(%d): %v", iter, at, err)
				}
				// Decode a burst of varying length: sometimes shorter than
				// one batch (the span workers are stopped mid-span),
				// sometimes spanning several spans.
				burst := int64(1 + rng.Intn(4000))
				for i := int64(0); i < burst && at+i < n; i++ {
					v, err := r.Decode()
					if err != nil {
						t.Fatalf("iter %d: Decode at %d: %v", iter, at+i, err)
					}
					if v != want[at+i] {
						t.Fatalf("iter %d: Seek(%d) diverges at offset %d", iter, at, i)
					}
				}
			}
			// Finish with a full tail decode to EOF: the stream must still
			// verify its trailer count after heavy seeking.
			if _, err := r.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			got, err := r.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(got)) != n {
				t.Fatalf("final full decode: %d addresses, want %d", len(got), n)
			}
		})
	}
}
