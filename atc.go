// Package atc is a Go implementation of ATC, the address-trace compressor
// of Pierre Michaud's "Online compression of cache-filtered address traces"
// (ISPASS 2009). It compresses traces of 64-bit values — typically cache
// block addresses that missed a first-level cache — either losslessly
// (bytesort transformation + block-sorting byte compressor) or lossily
// (phase detection over sorted byte-histograms with byte-translated
// interval reuse), reproducing the paper's `atc_open` / `atc_code` /
// `atc_decode` / `atc_close` workflow with idiomatic Go types.
//
// # Quick start
//
//	w, err := atc.NewWriter("trace-dir", atc.WithMode(atc.Lossy))   // directory layout
//	// or: atc.CreateArchive("trace.atc", atc.WithMode(atc.Lossy))  // single-file layout
//	if err != nil { ... }
//	for _, addr := range addrs {
//	    if err := w.Code(addr); err != nil { ... }
//	}
//	if err := w.Close(); err != nil { ... }
//
//	r, err := atc.NewReader("trace-dir") // auto-detects directory vs archive
//	if err != nil { ... }
//	defer r.Close()
//	for {
//	    addr, err := r.Decode()
//	    if err == io.EOF { break }
//	    if err != nil { ... }
//	    use(addr)
//	}
//
// A compressed trace is a set of named blobs — back-end-compressed chunks
// plus an INFO metadata stream, as in the paper's Figure 8 — held in a
// pluggable Store. Three layouts ship: a directory of files (the default,
// byte-identical to the paper tooling's output), a single-file .atc
// archive with a seekable table of contents (CreateArchive/OpenArchive,
// the distributable shape), and an in-memory store (NewMemStore, for
// tests and serving from RAM). NewReader auto-detects directory vs
// archive; cmd/atcpack converts between them byte-identically. Lossless
// mode is bit exact. Lossy mode preserves the trace length and the
// memory-locality structure (miss ratios, predictability) while storing
// only one chunk per program phase; see the package documentation of
// atc/internal/core for the on-disk format and the README's "Trace format
// versions" section for what each version stores.
//
// # Concurrency
//
// Chunk files are independent, so the expensive bytesort + back-end stage
// runs on a pool of WithWorkers goroutines (default runtime.GOMAXPROCS(0))
// in both modes: lossy mode hands each interval that becomes a chunk to
// the pool, and lossless mode cuts the stream into WithSegmentAddrs-sized
// segments (default 16 Mi addresses, on-disk format v2) that are
// compressed as independent chunks the same way. Lossy intervals are
// classified on one more goroutine at every worker count, so classifying
// interval i overlaps producing interval i+1. Interval classification,
// chunk numbering and the INFO record sequence run on that one goroutine
// in trace order, so the output directory is byte-for-byte identical for
// every worker count at a fixed segment size.
// (An archive's blobs are equally byte-identical, but the file appends
// them in worker completion order; use WithWorkers(1) or pack a directory
// with atcpack when a canonical archive file matters.)
// A chunk-compression failure is deferred: it is returned by a later
// Code/CodeSlice call or, at the latest, by Close — callers that check
// every error, as the quick start does, observe it either way. Writer and
// Reader themselves are not safe for concurrent use by multiple
// goroutines. WithSegmentAddrs(0) selects the legacy v1 single-chunk
// lossless layout, which streams with bounded memory but compresses and
// decompresses on a single goroutine.
//
// Decoding symmetrically overlaps back-end decompression with consumption:
// WithReadahead is the number of spans (intervals or segments) decoding at
// once, on every path (default 2; negative decodes on the calling
// goroutine). Reader.Decode's span workers decode ahead in trace order
// into a few recycled batch buffers, and Reader.DecodeAll decodes straight
// into its output. Reader.Close stops the span workers, so it must be
// called even on early abandonment.
//
// # Random access
//
// Decoding is driven by a chunk index built at open — a table mapping
// every interval/segment record to its absolute address range and backing
// chunk — so a Reader is not just a forward stream: Reader.Seek
// repositions it to any trace position, Reader.DecodeRange returns the
// addresses of an arbitrary window [from, to) while decompressing only
// the chunks overlapping it, and Reader.ReadAddrsAt offers the same as an
// io.ReaderAt-style call in address units. On lossy and segmented
// lossless traces these are O(chunks touched). The legacy v1 single-chunk
// lossless layout supports them too, through the same chunk reader: its
// one stream resumes when a read lies ahead of where the last one stopped
// and reopens from the start otherwise. cmd/atcserve serves this
// capability over HTTP from a directory, archive, or memory store.
package atc

import (
	"fmt"
	"io"

	"atc/internal/core"
	"atc/internal/obs"
	"atc/internal/store"
)

// Mode selects the compression mode.
type Mode = core.Mode

// Compression modes.
const (
	// Lossless is the paper's 'c' mode: bit-exact bytesort compression.
	Lossless = core.Lossless
	// Lossy is the paper's 'k' mode: phase-based interval reuse.
	Lossy = core.Lossy
)

// ErrCorrupt reports a malformed compressed trace or archive.
var ErrCorrupt = core.ErrCorrupt

// Store is a pluggable container of named blobs holding one compressed
// trace: a directory, a single-file archive, memory, or any custom
// implementation (a blob store, a content-addressed cache). Pass one with
// WithStore/WithReadStore; see atc/internal/store for the contract each
// method must honor.
type Store = store.Store

// NewMemStore returns an empty in-memory Store. A trace compressed into
// it (WithStore) stays readable from the same value after Writer.Close,
// so a trace can round-trip without touching the filesystem — the seed of
// an in-RAM serving tier.
func NewMemStore() Store { return store.NewMem() }

// ErrUnsupportedVersion reports a compressed trace written by a format
// version this build does not read; it wraps ErrCorrupt.
var ErrUnsupportedVersion = core.ErrUnsupportedVersion

// ErrClosed reports use of a Writer or Reader after Close. It signals a
// caller bug rather than bad data.
var ErrClosed = core.ErrClosed

// ErrOutOfRange reports a SeekTo, DecodeRange or ReadAddrsAt target
// outside the trace's address positions: the trace is intact, the
// request is not.
var ErrOutOfRange = core.ErrOutOfRange

// Stats summarises a finished compression.
type Stats struct {
	// Mode is the compression mode used.
	Mode Mode
	// TotalAddrs is the number of 64-bit values coded.
	TotalAddrs int64
	// Intervals is the number of lossy intervals (1 for lossless).
	Intervals int64
	// Chunks is the number of chunk files written.
	Chunks int64
	// Imitations is the number of intervals stored as imitation records.
	Imitations int64
}

// Option configures a Writer.
type Option func(*core.Options)

// WithMode selects Lossless (default) or Lossy compression.
func WithMode(m Mode) Option {
	return func(o *core.Options) { o.Mode = m }
}

// WithBackend selects the byte-level back end: "bsc" (default, a bzip2-class
// block-sorting compressor), "flate", or "store".
func WithBackend(name string) Option {
	return func(o *core.Options) { o.Backend = name }
}

// WithIntervalLen sets the lossy interval length L in addresses
// (default 10,000,000, the paper's value).
func WithIntervalLen(l int) Option {
	return func(o *core.Options) { o.IntervalLen = l }
}

// WithEpsilon sets the lossy matching threshold ε (default 0.1).
func WithEpsilon(eps float64) Option {
	return func(o *core.Options) { o.Epsilon = eps }
}

// WithBufferAddrs sets the bytesort buffer size B in addresses
// (default 1,000,000, the paper's "small bytesort").
func WithBufferAddrs(b int) Option {
	return func(o *core.Options) { o.BufferAddrs = b }
}

// WithSegmentAddrs cuts the lossless stream into segments of n addresses,
// each bytesort-transformed and back-end-compressed as an independent
// chunk by the WithWorkers pool (on-disk format v2). The default is 16 Mi
// addresses (128 MB of raw trace per segment); n <= 0 selects the legacy
// v1 single-chunk layout, which streams with bounded memory but offers no
// parallelism. Smaller segments parallelize better at a small
// bits-per-address cost, because each segment restarts the bytesort and
// back-end context. Lossy mode is unaffected.
func WithSegmentAddrs(n int) Option {
	return func(o *core.Options) {
		if n <= 0 {
			n = -1
		}
		o.SegmentAddrs = n
	}
}

// WithTableCapacity bounds the phase table (default 256 chunks).
func WithTableCapacity(n int) Option {
	return func(o *core.Options) { o.TableCapacity = n }
}

// WithStore writes the trace into s instead of the path-selected default
// container. The path passed to NewWriter is then informational only.
// Writer.Close finalizes the store (a single-file archive writes its
// table of contents there).
func WithStore(s Store) Option {
	return func(o *core.Options) { o.Store = s }
}

// WithWorkers sets the number of goroutines compressing completed chunks
// — lossy intervals and lossless segments (default runtime.GOMAXPROCS(0)).
// Lossy classification runs on one more goroutine at any n. n = 1 runs
// one worker behind an unbuffered queue in both modes: compressing chunk
// i overlaps producing chunk i+1, and streaming memory is capped at two
// chunk buffers. The compressed directory is byte-for-byte
// identical for every worker count; worker errors are deferred into a
// later Code call or Close. Only the legacy single-chunk lossless layout
// (WithSegmentAddrs(0)) is unaffected by workers.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// Writer compresses a trace into a directory.
type Writer struct {
	c *core.Compressor
}

func newWriter(path string, archive bool, opts []Option) (*Writer, error) {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	o.Archive = archive
	c, err := core.Create(path, o)
	if err != nil {
		return nil, err
	}
	return &Writer{c: c}, nil
}

// NewWriter starts a new compressed trace in directory dir (or in the
// container named by WithStore).
func NewWriter(dir string, opts ...Option) (*Writer, error) {
	return newWriter(dir, false, opts)
}

// CreateArchive starts a new compressed trace as a single-file .atc
// archive at path: header, blob payloads and a trailing seekable table of
// contents with per-blob CRC32s. The trace encoding inside is identical
// to the directory layout — cmd/atcpack converts between the two
// byte-for-byte. Close writes the table of contents; an abandoned archive
// does not open.
func CreateArchive(path string, opts ...Option) (*Writer, error) {
	return newWriter(path, true, opts)
}

// Code appends one 64-bit value to the trace.
func (w *Writer) Code(x uint64) error { return w.c.Code(x) }

// CodeSlice appends many values.
func (w *Writer) CodeSlice(xs []uint64) error { return w.c.CodeSlice(xs) }

// Close finishes the trace, writing all metadata. It must be called.
func (w *Writer) Close() error { return w.c.Close() }

// Stats reports compression counters; call after Close.
func (w *Writer) Stats() Stats {
	s := w.c.Stats()
	return Stats{
		Mode:       s.Mode,
		TotalAddrs: s.TotalAddrs,
		Intervals:  s.Intervals,
		Chunks:     s.Chunks,
		Imitations: s.Imitations,
	}
}

// ReadOption configures a Reader.
type ReadOption func(*core.DecodeOptions)

// WithReadBackend overrides the back end recorded in the trace MANIFEST.
func WithReadBackend(name string) ReadOption {
	return func(o *core.DecodeOptions) { o.Backend = name }
}

// WithoutTranslations disables byte translation during decoding — the
// ablation of the paper's Figure 4. Only meaningful for lossy traces.
func WithoutTranslations() ReadOption {
	return func(o *core.DecodeOptions) { o.IgnoreTranslations = true }
}

// SharedChunkCacheBytes is a process-wide byte-budgeted chunk cache:
// every Reader of every trace shares one memory cap, with entries keyed
// by (trace, chunkID), accounted at len(addrs)*8 bytes each and evicted
// LRU-by-bytes. Inject a per-trace view from ForTrace with
// WithChunkCache.
type SharedChunkCacheBytes = core.SharedChunkCacheBytes

// TraceChunkCache is one trace's view of a SharedChunkCacheBytes; it
// carries per-trace hit/load/eviction and residency counters.
type TraceChunkCache = core.TraceChunkCache

// NewSharedChunkCacheBytes returns a process-wide chunk cache holding at
// most budget decoded bytes across every trace.
func NewSharedChunkCacheBytes(budget int64) *SharedChunkCacheBytes {
	return core.NewSharedChunkCacheBytes(budget)
}

// WithChunkCache makes the Reader decode through c — typically
// ForTrace(name) of one SharedChunkCacheBytes shared by every pooled
// Reader of that trace, so a hot chunk decompresses once per process
// instead of once per reader. Without it a Reader keeps a private cache
// of 8 chunks of the trace's interval or segment length.
func WithChunkCache(c *TraceChunkCache) ReadOption {
	return func(o *core.DecodeOptions) { o.ChunkCache = c }
}

// WithReadahead sets the number of spans (intervals or segments)
// decoding at once, on every path (default 2): Decode's span workers,
// which decode ahead of the caller into recycled batch buffers, and
// DecodeAll's, which decode straight into its output. Negative n runs the
// same decode, Decode's and DecodeAll's, on the calling goroutine. The
// decoded stream is identical either way.
func WithReadahead(n int) ReadOption {
	return func(o *core.DecodeOptions) { o.Readahead = n }
}

// WithReadStore reads the trace from s instead of the path passed to
// NewReader (which is then informational only). The store is not closed
// by Reader.Close — it remains the caller's, so one MemStore can serve
// many concurrent Readers.
func WithReadStore(s Store) ReadOption {
	return func(o *core.DecodeOptions) { o.Store = s }
}

// Reader decompresses a trace directory.
type Reader struct {
	d *core.Decompressor
}

func newReader(path string, archive bool, opts []ReadOption) (*Reader, error) {
	var o core.DecodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	o.Archive = archive
	d, err := core.Open(path, o)
	if err != nil {
		return nil, err
	}
	return &Reader{d: d}, nil
}

// NewReader opens a compressed trace for decoding. The path may name a
// trace directory, a single-file .atc archive — a stat distinguishes
// them — or an http(s) URL of an archive hosted on any server honoring
// Range requests (object storage, a CDN, cmd/atcstatic), read on demand
// through a caching ranged reader without downloading the file. It can
// also be overridden entirely by WithReadStore.
func NewReader(path string, opts ...ReadOption) (*Reader, error) {
	return newReader(path, false, opts)
}

// OpenArchive opens a single-file .atc archive for decoding. Unlike
// NewReader it does not fall back to the directory layout: anything that
// is not a valid archive fails with ErrCorrupt.
func OpenArchive(path string, opts ...ReadOption) (*Reader, error) {
	return newReader(path, true, opts)
}

// Decode returns the next value; io.EOF signals a verified end of trace.
func (r *Reader) Decode() (uint64, error) { return r.d.Decode() }

// DecodeAll decodes the remaining trace into memory, up to WithReadahead
// spans at once, straight into the returned slice.
func (r *Reader) DecodeAll() ([]uint64, error) { return r.d.DecodeAll() }

// Mode reports the stored trace's compression mode.
func (r *Reader) Mode() Mode { return r.d.Mode() }

// FormatVersion reports the trace's on-disk format version: 1 for legacy
// traces, 2 for segmented lossless.
func (r *Reader) FormatVersion() int { return r.d.FormatVersion() }

// SegmentAddrs reports the stored lossless segment length in addresses
// (0 for legacy single-chunk and lossy traces).
func (r *Reader) SegmentAddrs() int { return r.d.SegmentAddrs() }

// TotalAddrs reports the stored trace length.
func (r *Reader) TotalAddrs() int64 { return r.d.TotalAddrs() }

// IntervalLen reports the stored interval length L in addresses (lossy
// traces; 0 is never written, but lossless traces carry the default).
func (r *Reader) IntervalLen() int { return r.d.IntervalLen() }

// Epsilon reports the stored lossy matching threshold ε.
func (r *Reader) Epsilon() float64 { return r.d.Epsilon() }

// Records reports the number of interval records (lossy traces) or
// segment records (segmented lossless traces); legacy lossless traces
// have exactly one.
func (r *Reader) Records() int { return r.d.Records() }

// ChunkSpan is one entry of a trace's chunk index: the trace positions
// [Start, End) decode from chunk ChunkID, directly or (Imitation) as a
// byte-translated replay of that source chunk.
type ChunkSpan = core.ChunkSpan

// ChunkIndex returns a copy of the chunk index built at open: one entry
// per record, in trace order. It is the map Seek and DecodeRange navigate
// by, and what atcinfo -chunks prints.
func (r *Reader) ChunkIndex() []ChunkSpan { return r.d.ChunkIndex() }

// ChunkReads reports how many chunk blobs this Reader has opened for
// decoding (chunk-cache hits and resumed v1 streams do not count) — an
// observability hook for serving tiers and for tests asserting that range
// decodes touch only the chunks they must.
func (r *Reader) ChunkReads() int64 { return r.d.ChunkReads() }

// DecodeTrace records per-stage wall time (admission wait, index walk,
// fetch, decompress, translate, deliver) and chunk-touch counts for one
// decode request. Attach one with SetDecodeTrace; the zero value is
// ready to use. See atc/internal/obs for the stage definitions.
type DecodeTrace = obs.Trace

// SetDecodeTrace attaches a per-request trace recorder: subsequent
// synchronous decodes (DecodeRange and friends) accumulate stage timings
// and chunk-touch counts into t. Pass nil to detach. Must not be called
// while a decode is in flight — the intended lifetime is one ranged
// request on a pooled Reader, attached before the decode and read after.
func (r *Reader) SetDecodeTrace(t *DecodeTrace) { r.d.SetTrace(t) }

// Position reports the absolute trace position, in addresses, of the next
// value Decode will return.
func (r *Reader) Position() int64 { return r.d.Position() }

// Seek repositions the stream so the next Decode returns the address at
// the given trace position. It implements the io.Seeker signature with
// offsets measured in addresses, not bytes: io.SeekStart is relative to
// the trace start, io.SeekCurrent to Position(), io.SeekEnd to
// TotalAddrs(). The resulting position must lie in [0, TotalAddrs()] —
// seeking past either end is an error (position TotalAddrs() itself is
// allowed; the next Decode then returns io.EOF). Seeking backwards is
// supported in every format; on lossy and segmented traces a seek costs
// at most one chunk decode, while legacy v1 lossless traces resume their
// stream when seeking ahead of where it stopped and re-stream from the
// start otherwise. Seek clears a pending io.EOF, so a Reader can be
// rewound and decoded again.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.d.Position()
	case io.SeekEnd:
		base = r.d.TotalAddrs()
	default:
		return r.d.Position(), fmt.Errorf("atc: invalid seek whence %d", whence)
	}
	if err := r.d.SeekTo(base + offset); err != nil {
		return r.d.Position(), err
	}
	return r.d.Position(), nil
}

// DecodeRange decodes the addresses at trace positions [from, to) —
// byte-for-byte the slice DecodeAll would have produced there —
// decompressing only the chunks overlapping the window. Touched chunks
// are pinned in the chunk cache (WithChunkCache), so a hot working set of
// ranges is served from memory; on a legacy v1 trace the window decodes
// straight from its stream, which a later window ahead of it resumes. The
// streaming position is unaffected.
func (r *Reader) DecodeRange(from, to int64) ([]uint64, error) {
	return r.d.DecodeRange(from, to)
}

// DecodeRangeAppend is DecodeRange into a caller-provided buffer: the
// window's addresses are appended to dst and the extended slice
// returned, so a serving loop reusing one buffer pays no per-request
// window allocation.
func (r *Reader) DecodeRangeAppend(dst []uint64, from, to int64) ([]uint64, error) {
	return r.d.DecodeRangeAppend(dst, from, to)
}

// ReadAddrsAt fills p with the addresses starting at trace position off —
// io.ReaderAt semantics in address units: it returns the number of
// addresses read and io.EOF when the trace ends before p is full. The
// window decodes directly into p, so a reused caller buffer costs no
// per-call window allocation.
func (r *Reader) ReadAddrsAt(p []uint64, off int64) (int, error) {
	total := r.d.TotalAddrs()
	if off < 0 || off > total {
		return 0, fmt.Errorf("%w: read at %d outside trace [0, %d]", ErrOutOfRange, off, total)
	}
	end := off + int64(len(p))
	if end > total {
		end = total
	}
	// p[:0] has capacity for the window, so the addresses land in p.
	got, err := r.d.DecodeRangeAppend(p[:0], off, end)
	n := len(got)
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close releases open files.
func (r *Reader) Close() error { return r.d.Close() }

// Compress is a convenience helper compressing an in-memory trace.
func Compress(dir string, addrs []uint64, opts ...Option) (Stats, error) {
	w, err := NewWriter(dir, opts...)
	if err != nil {
		return Stats{}, err
	}
	if err := w.CodeSlice(addrs); err != nil {
		w.Close() // drain the worker pool; reports the same deferred error
		return Stats{}, err
	}
	if err := w.Close(); err != nil {
		return Stats{}, err
	}
	return w.Stats(), nil
}

// Decompress is a convenience helper expanding a whole compressed trace.
func Decompress(dir string, opts ...ReadOption) ([]uint64, error) {
	r, err := NewReader(dir, opts...)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.DecodeAll()
}

// BitsPerAddress reports the paper's BPA metric for a compressed trace of
// known length: total compressed bits divided by trace length. The path
// may name a trace directory (summed file sizes) or a single-file .atc
// archive (whole file size, container overhead included).
func BitsPerAddress(path string, addrs int64) (float64, error) {
	return core.BitsPerAddress(path, addrs)
}
