// Package xcompress provides a registry of byte-level compression back ends
// behind a single interface. The paper's ATC tool shells out to an external
// compressor command ("bzip2 -c", "gzip -c", …); this reproduction keeps the
// same pluggability but in-process: "bsc" is the block-sorting (bzip2-class)
// back end, "flate" is DEFLATE from the standard library (gzip-class), and
// "store" performs no compression (useful for isolating transform effects
// in ablation experiments).
package xcompress

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"atc/internal/bsc"
)

// ErrUnknownBackend reports a backend name with no registration — from a
// decoder's perspective this means the trace names a compressor this build
// cannot provide, so callers on the decode path treat it like corruption.
var ErrUnknownBackend = errors.New("xcompress: unknown backend")

// Backend creates compressing writers and decompressing readers.
type Backend interface {
	// Name returns the registry key, e.g. "bsc".
	Name() string
	// NewWriter returns a writer compressing onto w. Closing it must
	// flush all data but must not close w. The caller may Reset it across
	// any number of streams: each encode worker keeps one, so per-chunk
	// compression stops allocating working memory.
	NewWriter(w io.Writer) (ResetWriter, error)
	// NewReader returns a reader decompressing from r. The caller may
	// Reset it across any number of streams: the decode pipeline pools
	// these per Decompressor so per-chunk decompression stops allocating
	// working memory.
	NewReader(r io.Reader) (ResetReader, error)
}

// ResetWriter is a compressing writer that can be re-targeted at a new
// output stream while retaining its internal working state (block
// buffers, transform scratch, entropy-coder tables), the twin of
// ResetReader. After Reset the writer must behave exactly as a freshly
// constructed one on dst, whatever state the previous stream left it in.
type ResetWriter interface {
	io.WriteCloser
	Reset(dst io.Writer)
}

// ResetReader is a decompressing reader that can be re-targeted at a new
// compressed stream while retaining its internal working state (block
// buffers, transform scratch, entropy-coder tables). After Reset the
// reader must behave exactly as a freshly constructed one on src.
type ResetReader interface {
	io.Reader
	Reset(src io.Reader) error
}

var (
	mu       sync.RWMutex
	backends = map[string]Backend{}
)

// Register makes a back end available by name, replacing any previous
// registration with the same name.
func Register(b Backend) {
	mu.Lock()
	defer mu.Unlock()
	backends[b.Name()] = b
}

// Lookup returns the named back end.
func Lookup(name string) (Backend, error) {
	mu.RLock()
	defer mu.RUnlock()
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownBackend, name, namesLocked())
	}
	return b, nil
}

// Names lists the registered back ends in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(backends))
	for n := range backends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bscBackend adapts internal/bsc.
type bscBackend struct{ blockSize int }

func (b bscBackend) Name() string { return "bsc" }

func (b bscBackend) NewWriter(w io.Writer) (ResetWriter, error) {
	return bsc.NewWriterSize(w, b.blockSize), nil
}

func (b bscBackend) NewReader(r io.Reader) (ResetReader, error) {
	return bsc.NewReader(r), nil
}

// flateBackend adapts compress/flate.
type flateBackend struct{ level int }

func (f flateBackend) Name() string { return "flate" }

func (f flateBackend) NewWriter(w io.Writer) (ResetWriter, error) {
	return flate.NewWriter(w, f.level)
}

func (f flateBackend) NewReader(r io.Reader) (ResetReader, error) {
	return &flateResetReader{rc: flate.NewReader(r)}, nil
}

// flateResetReader adapts compress/flate's Resetter (whose Reset takes a
// dictionary argument) to the ResetReader shape.
type flateResetReader struct{ rc io.ReadCloser }

func (f *flateResetReader) Read(p []byte) (int, error) { return f.rc.Read(p) }

func (f *flateResetReader) Reset(src io.Reader) error {
	return f.rc.(flate.Resetter).Reset(src, nil)
}

// storeBackend copies bytes verbatim with a trivial length-free framing:
// the stream is the data itself (callers frame externally).
type storeBackend struct{}

func (storeBackend) Name() string { return "store" }

func (storeBackend) NewWriter(w io.Writer) (ResetWriter, error) {
	return &passthroughWriter{dst: w}, nil
}

func (storeBackend) NewReader(r io.Reader) (ResetReader, error) {
	return &passthroughReader{src: r}, nil
}

// passthroughReader gives the store back end a resettable identity reader
// so it pools like the real compressors (the indirection through one
// non-escaping struct read is noise next to the copy itself).
type passthroughReader struct{ src io.Reader }

func (p *passthroughReader) Read(b []byte) (int, error) { return p.src.Read(b) }

func (p *passthroughReader) Reset(src io.Reader) error {
	p.src = src
	return nil
}

// passthroughWriter is the store back end's resettable identity writer.
type passthroughWriter struct{ dst io.Writer }

func (p *passthroughWriter) Write(b []byte) (int, error) { return p.dst.Write(b) }

func (p *passthroughWriter) Close() error { return nil }

func (p *passthroughWriter) Reset(dst io.Writer) { p.dst = dst }

func init() {
	Register(bscBackend{blockSize: bsc.DefaultBlockSize})
	Register(flateBackend{level: flate.BestCompression})
	Register(storeBackend{})
}

// CompressAll compresses data with the named back end into a fresh buffer.
func CompressAll(name string, data []byte) ([]byte, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := b.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecompressAll expands data with the named back end.
func DecompressAll(name string, data []byte) ([]byte, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	r, err := b.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}
