package xcompress

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestNamesContainsBuiltins(t *testing.T) {
	names := Names()
	want := map[string]bool{"bsc": false, "flate": false, "store": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("bzip2"); err == nil {
		t.Fatal("unknown backend lookup succeeded")
	}
}

func TestRoundTripAllBackends(t *testing.T) {
	data := bytes.Repeat([]byte("backend round trip data 0123456789 "), 300)
	for _, name := range Names() {
		c, err := CompressAll(name, data)
		if err != nil {
			t.Fatalf("%s compress: %v", name, err)
		}
		d, err := DecompressAll(name, c)
		if err != nil {
			t.Fatalf("%s decompress: %v", name, err)
		}
		if !bytes.Equal(d, data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		if name != "store" && len(c) >= len(data) {
			t.Errorf("%s: repetitive data did not shrink (%d -> %d)", name, len(data), len(c))
		}
		if name == "store" && len(c) != len(data) {
			t.Errorf("store: size changed (%d -> %d)", len(data), len(c))
		}
	}
}

func TestStreamingInterface(t *testing.T) {
	data := bytes.Repeat([]byte("streaming"), 1000)
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := b.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Write in small chunks.
		for i := 0; i < len(data); i += 100 {
			end := i + 100
			if end > len(data) {
				end = len(data)
			}
			if _, err := w.Write(data[i:end]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		r, err := b.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: streaming round trip mismatch", name)
		}
	}
}

func TestRegisterOverride(t *testing.T) {
	orig, err := Lookup("store")
	if err != nil {
		t.Fatal(err)
	}
	Register(fakeBackend{})
	defer Register(orig)
	b, err := Lookup("store")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(fakeBackend); !ok {
		t.Fatal("Register did not override existing backend")
	}
}

type fakeBackend struct{}

func (fakeBackend) Name() string { return "store" }
func (fakeBackend) NewWriter(w io.Writer) (ResetWriter, error) {
	return &passthroughWriter{dst: w}, nil
}
func (fakeBackend) NewReader(r io.Reader) (ResetReader, error) {
	return &passthroughReader{src: r}, nil
}

func TestRoundTripProperty(t *testing.T) {
	for _, name := range []string{"bsc", "flate", "store"} {
		name := name
		f := func(data []byte) bool {
			c, err := CompressAll(name, data)
			if err != nil {
				return false
			}
			d, err := DecompressAll(name, c)
			if err != nil {
				return false
			}
			if len(data) == 0 {
				return len(d) == 0
			}
			return bytes.Equal(d, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// resetPayloads are unrelated streams for the Reset equivalence tests:
// empty, tiny, repetitive, noisy and all zeros.
func resetPayloads() [][]byte {
	noisy := make([]byte, 100_000)
	for i := range noisy {
		noisy[i] = byte(i * 2654435761 >> 13)
	}
	return [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("stateful reset equivalence "), 500),
		noisy,
		bytes.Repeat([]byte{0}, 64<<10),
	}
}

// TestStatefulBackendWriterResetEquivalence exercises every registered
// back end's writer as an encode worker uses it: one ResetWriter
// re-targeted across a series of unrelated streams must write each
// byte-identically to a fresh NewWriter, including right after a stream
// abandoned before Close.
func TestStatefulBackendWriterResetEquivalence(t *testing.T) {
	payloads := resetPayloads()
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		rw, err := b.NewWriter(&got)
		if err != nil {
			t.Fatalf("%s: NewWriter: %v", name, err)
		}
		for round := 0; round < 3; round++ {
			for i, p := range payloads {
				got.Reset()
				rw.Reset(&got)
				if _, err := rw.Write(p); err != nil {
					t.Fatalf("%s: write %d/%d: %v", name, round, i, err)
				}
				if err := rw.Close(); err != nil {
					t.Fatalf("%s: close %d/%d: %v", name, round, i, err)
				}
				want, err := CompressAll(name, p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s: reset encode %d/%d differs from a fresh writer's (%d vs %d bytes)", name, round, i, got.Len(), len(want))
				}
			}
			// Abandon a stream before Close; the next Reset must recover.
			rw.Reset(io.Discard)
			if _, err := rw.Write(payloads[3]); err != nil {
				t.Fatalf("%s: partial write: %v", name, err)
			}
		}
	}
}

// TestStatefulBackendResetEquivalence exercises every registered back
// end's reader as the decode pool uses it: one ResetReader re-targeted across
// a series of unrelated streams must decode each byte-identically to a
// fresh NewReader — including immediately after a mid-stream abandonment,
// which is how the decode pipeline recycles readers between chunks.
func TestStatefulBackendResetEquivalence(t *testing.T) {
	payloads := resetPayloads()
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var comp [][]byte
		for i, p := range payloads {
			c, err := CompressAll(name, p)
			if err != nil {
				t.Fatalf("%s compress %d: %v", name, i, err)
			}
			comp = append(comp, c)
		}
		rr, err := b.NewReader(bytes.NewReader(comp[0]))
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		for round := 0; round < 3; round++ {
			for i, c := range comp {
				if round > 0 || i > 0 {
					if err := rr.Reset(bytes.NewReader(c)); err != nil {
						t.Fatalf("%s: reset %d/%d: %v", name, round, i, err)
					}
				}
				got, err := io.ReadAll(rr)
				if err != nil {
					t.Fatalf("%s: read %d/%d: %v", name, round, i, err)
				}
				want, err := DecompressAll(name, c)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: reset decode %d/%d mismatch (%d vs %d bytes)", name, round, i, len(got), len(want))
				}
			}
			// Abandon a stream partway; the next round's Reset must recover.
			if err := rr.Reset(bytes.NewReader(comp[3])); err != nil {
				t.Fatal(err)
			}
			var one [1]byte
			if _, err := rr.Read(one[:]); err != nil {
				t.Fatalf("%s: partial read: %v", name, err)
			}
		}
	}
}
