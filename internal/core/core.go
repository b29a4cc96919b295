// Package core implements ATC, the address-trace compressor of the paper
// (Michaud, ISPASS 2009, Section 6): a single-pass streaming compressor for
// traces of 64-bit values with a lossless mode ('c' in the paper) and a
// lossy, phase-based mode ('k').
//
// A compressed trace is a set of named blobs held in a store.Store — a
// directory of files (the historical layout), a single-file .atc archive,
// or memory (see atc/internal/store):
//
//	MANIFEST        small plain-text descriptor (version, mode, back end)
//	INFO.<suffix>   back-end-compressed metadata: parameters and the
//	                interval record sequence (chunk / imitate+translations)
//	<n>.<suffix>    chunk n: one interval (lossy) or one segment
//	                (lossless), bytesort-transformed and back-end-compressed
//
// The trace encoding is byte-identical across stores: packing a directory
// trace into an archive (cmd/atcpack) copies blobs verbatim, and DirStore
// output matches the pre-store code exactly, so the golden v1/v2 testdata
// still decodes and re-encodes bit for bit.
//
// Two on-disk format versions exist; the MANIFEST "atc <version>" line and
// the INFO version byte both carry it and must agree:
//
//   - Version 1 (legacy): lossless traces are a single chunk file holding
//     the whole bytesort stream, described by one chunk record in INFO.
//   - Version 2 (segmented lossless): the lossless stream is cut into
//     segments of Options.SegmentAddrs addresses, each bytesort-transformed
//     and back-end-compressed as its own numbered chunk file with one chunk
//     record per segment in INFO, and INFO carries the segment length in a
//     field after BufferAddrs. Version 2 is written only for segmented
//     lossless traces; lossy traces and legacy single-chunk lossless traces
//     (SegmentAddrs < 0) still write byte-identical version-1 output.
//
// Lossy mode cuts the trace into intervals of L addresses; each interval
// either becomes a new chunk or is recorded as an imitation of a previous
// chunk together with the byte translations of Section 5.1. The final,
// possibly short interval always becomes a chunk so every imitation replays
// a full-length interval.
//
// # Parallel chunk pipeline
//
// Chunk files are independent (Figure 8), so a pool of Options.Workers
// goroutines writes every chunk of a lossy or version-2 trace, each
// running the bytesort + back-end pipeline for one chunk. Segments go
// straight to the pool. Lossy intervals go first to one classify
// goroutine at every worker count. It does the paper's atc_code work
// (Section 5.2) off the caller, overlapping trace production: it computes
// each interval's sorted byte-histograms, runs the phase table match,
// numbers chunks and appends records strictly in trace order, so the
// directory produced with N workers is byte-for-byte identical to the
// Workers=1 result in both modes. Chunk buffers pass along by ownership
// transfer (no copying), and the one histogram Set the phase table does
// not hold is reused for the next interval, so a long lossy stream
// classifies allocation-free. (Every blob is also byte-identical inside
// an archive, but the archive *file* appends blobs in worker completion
// order, which varies with Workers > 1; the TOC makes that order
// irrelevant to readers, and Workers=1 — or packing a directory with
// atcpack — yields a canonical, reproducible archive.) Worker errors are
// deferred: a failed chunk write surfaces from the next Code/CodeSlice
// call or, at the latest, from Close. Legacy single-chunk lossless mode
// (SegmentAddrs < 0) streams with bounded memory on the caller's
// goroutine and is unaffected by Workers.
//
// Chunk buffers recycle through a bounded free list: a stream allocates
// at most Workers + queue + 1 chunk buffers, and once that many exist the
// caller waits for a recycled one. Workers=1 runs a single worker behind
// an unbuffered queue: a double buffer (one chunk filling, one classified
// or compressing) that caps streaming memory at two chunk buffers while
// still overlapping compression with trace production.
//
// Decoding mirrors this with a bounded readahead goroutine (see
// DecodeOptions.Readahead in decode.go) that overlaps back-end
// decompression with consumption; segmented lossless traces additionally
// decompress up to Readahead segments concurrently.
package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atc/internal/bytesort"
	"atc/internal/histogram"
	"atc/internal/phase"
	"atc/internal/store"
	"atc/internal/xcompress"
)

// Mode selects lossless or lossy compression.
type Mode int

const (
	// Lossless is the paper's 'c' mode: bytesort + back end, bit exact.
	Lossless Mode = iota
	// Lossy is the paper's 'k' mode: phase-based interval reuse.
	Lossy
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Lossless:
		return "lossless"
	case Lossy:
		return "lossy"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Defaults mirroring the paper's parameters.
const (
	// DefaultIntervalLen is the paper's interval length L (10 million
	// addresses, §5.3).
	DefaultIntervalLen = 10_000_000
	// DefaultBufferAddrs is the paper's bytesort buffer for chunks
	// (1 million addresses, §5.2).
	DefaultBufferAddrs = 1_000_000
	// DefaultBackend is the byte-level back end (bzip2 in the paper).
	DefaultBackend = "bsc"
	// DefaultSegmentAddrs is the default lossless segment length: 16 Mi
	// addresses (128 MB of raw trace) per independently compressed chunk.
	DefaultSegmentAddrs = 16 << 20
)

const (
	manifestName = "MANIFEST"
	infoBase     = "INFO"
	infoMagic    = "ATCI"

	// infoVersion1 is the legacy layout: a lossless trace is one chunk.
	infoVersion1 = 1
	// infoVersion2 adds segmented lossless mode: one chunk record per
	// segment and a SegmentAddrs field in INFO after BufferAddrs.
	infoVersion2 = 2
	// maxInfoVersion is the newest format this build writes and reads.
	maxInfoVersion = infoVersion2

	recChunk   = 1
	recImitate = 2
	recEnd     = 0
)

// ErrCorrupt reports a malformed compressed trace. It aliases the store
// package's sentinel, so corruption detected at either layer — a bad
// archive TOC or a bad trace record — matches the same errors.Is check.
var ErrCorrupt = store.ErrCorrupt

// ErrUnsupportedVersion reports a compressed trace whose MANIFEST or INFO
// declares a format version this build does not read. It wraps ErrCorrupt,
// so errors.Is(err, ErrCorrupt) continues to match.
var ErrUnsupportedVersion = fmt.Errorf("%w: unsupported format version", ErrCorrupt)

// ErrClosed reports use of a Compressor or Decompressor after Close. It is
// a caller bug, distinct from data corruption: servers map it to an
// internal error, never to a bad-input status.
var ErrClosed = errors.New("atc: use after close")

// ErrOutOfRange reports a SeekTo or DecodeRange target outside the trace's
// [0, total] address positions — the trace is fine, the request is not.
// atcserve maps it to 416 Requested Range Not Satisfiable.
var ErrOutOfRange = errors.New("atc: position outside trace")

// Options configures compression.
type Options struct {
	// Mode selects Lossless or Lossy. Default Lossless.
	Mode Mode
	// Backend names the byte-level compressor ("bsc", "flate", "store").
	// Default DefaultBackend.
	Backend string
	// IntervalLen is the lossy interval length L in addresses.
	// Default DefaultIntervalLen.
	IntervalLen int
	// Epsilon is the lossy matching threshold. Default phase.DefaultEpsilon.
	Epsilon float64
	// BufferAddrs is the bytesort buffer size B in addresses.
	// Default DefaultBufferAddrs.
	BufferAddrs int
	// SegmentAddrs cuts the lossless stream into segments of this many
	// addresses, each compressed as an independent chunk by the worker
	// pool (on-disk format version 2). 0 selects DefaultSegmentAddrs;
	// a negative value selects the legacy version-1 single-chunk layout,
	// which streams with bounded memory but compresses on one goroutine.
	// Lossy mode ignores it.
	SegmentAddrs int
	// TableCapacity bounds the phase table. Default phase.DefaultCapacity.
	TableCapacity int
	// Workers is the number of goroutines compressing completed chunks —
	// lossy intervals and segmented-lossless segments. 0 selects
	// runtime.GOMAXPROCS(0). Lossy intervals are classified on one more
	// goroutine at every worker count. With 1, one worker compresses
	// chunks behind an unbuffered queue — a double buffer holding at most
	// two chunk buffers, where classifying and compressing chunk i overlap
	// filling chunk i+1.
	// Every blob is byte-identical for any worker count; a directory is
	// therefore fully reproducible, while an archive file's blob order
	// follows worker completion with Workers > 1 (see the package doc).
	Workers int
	// Store overrides the blob container the trace is written into; when
	// nil the path passed to Create selects the default — a directory, or
	// a single-file archive when Archive is set. Close finalizes the
	// store (an archive's table of contents is written there).
	Store store.Store
	// Archive writes the trace as a single-file .atc archive at the path
	// passed to Create instead of a directory. Ignored when Store is set.
	Archive bool
}

func (o *Options) fillDefaults() {
	if o.Backend == "" {
		o.Backend = DefaultBackend
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.IntervalLen <= 0 {
		o.IntervalLen = DefaultIntervalLen
	}
	if o.Epsilon <= 0 {
		o.Epsilon = phase.DefaultEpsilon
	}
	if o.BufferAddrs <= 0 {
		o.BufferAddrs = DefaultBufferAddrs
	}
	if o.SegmentAddrs == 0 {
		o.SegmentAddrs = DefaultSegmentAddrs
	}
	if o.TableCapacity <= 0 {
		o.TableCapacity = phase.DefaultCapacity
	}
}

// segmented reports whether this configuration writes the version-2
// segmented lossless layout.
func (o *Options) segmented() bool {
	return o.Mode == Lossless && o.SegmentAddrs > 0
}

// formatVersion is the on-disk version written for this configuration.
// Only segmented lossless needs version 2; everything else keeps writing
// byte-identical version-1 output.
func (o *Options) formatVersion() int {
	if o.segmented() {
		return infoVersion2
	}
	return infoVersion1
}

// record is one INFO entry describing an interval.
type record struct {
	tag     uint8
	chunkID int
	trans   *histogram.Translations // imitation records only
}

// Stats summarises a finished compression.
type Stats struct {
	Mode       Mode
	TotalAddrs int64 // addresses coded
	Intervals  int64 // lossy intervals seen (lossless: 1)
	Chunks     int64 // chunks written
	Imitations int64 // intervals replaced by imitation records
}

// Compressor writes an ATC-compressed trace. Create one with Create, feed
// it with Code/CodeSlice and finish with Close.
type Compressor struct {
	path    string
	st      store.Store
	opts    Options
	backend xcompress.Backend

	// ownStore marks a store Create built itself (from the path); only
	// those are aborted — removed — when the trace cannot be started.
	ownStore bool

	// stream is the legacy (version 1) lossless pipeline: one streaming
	// chunk blob. nil for chunked traces.
	stream *blobWriter

	// Chunked traces (lossy intervals, version-2 lossless segments): buf
	// fills to chunkLen addresses and is then dispatched; bufCap is the
	// capacity a fresh buffer starts with.
	buf      []uint64
	chunkLen int
	bufCap   int

	// Lossy classification state: until classifyDone closes, only the
	// classify goroutine, fed through intervals, touches table, records,
	// spare and the chunk counters. spare is the one histogram Set the
	// phase table does not hold; an imitation, a short final chunk or a
	// table eviction leaves it for the next interval.
	table        *phase.Table
	records      []record
	spare        *histogram.Set
	intervals    chan []uint64
	classifyDone chan struct{}

	// Worker pool: writes every chunk of a chunked trace. The first error
	// anywhere in the pipeline is latched in werr and surfaced by the next
	// Code/CodeSlice or by Close. Chunk buffers recycle through freeBufs,
	// whose capacity bounds the nBufs buffers ever allocated.
	jobs       chan chunkJob
	freeBufs   chan []uint64
	nBufs      int
	workerWG   sync.WaitGroup
	werr       atomic.Pointer[error]
	poolClosed bool

	nextChunk int
	total     int64
	nChunks   int64
	nImit     int64
	closed    bool
	err       error
}

// chunkJob is one completed chunk queued for back-end compression.
type chunkJob struct {
	id    int
	addrs []uint64
}

// workerErr returns the first latched pipeline error, or nil.
func (c *Compressor) workerErr() error {
	if p := c.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// setWorkerErr latches err unless an earlier error already won.
func (c *Compressor) setWorkerErr(err error) {
	c.werr.CompareAndSwap(nil, &err)
}

// startWorkers launches the chunk-compression pool behind a job queue
// and, for a lossy trace, the classify goroutine in front of it. With
// Workers > 1 the queue is one deep per worker so the caller can keep
// accumulating the next chunk while all workers are busy; Workers=1 runs
// one worker behind an unbuffered handoff, which together with the
// buffer bound caps the pipeline at two chunk buffers — one filling, one
// classified or compressing.
func (c *Compressor) startWorkers() {
	n, queue := c.opts.Workers, c.opts.Workers
	if n == 1 {
		queue = 0
	}
	c.jobs = make(chan chunkJob, queue)
	// One buffer per worker and queue slot, plus the one the caller is
	// filling; all fit in the free list, so a recycle never blocks.
	c.freeBufs = make(chan []uint64, n+queue+1)
	c.nBufs = 1 // c.buf
	if c.table != nil {
		// One deep, so a hand-off does not wait for the classify goroutine
		// to get a CPU (a worker may hold it for a time slice).
		c.intervals = make(chan []uint64, 1)
		c.classifyDone = make(chan struct{})
		go func() {
			defer close(c.classifyDone)
			for addrs := range c.intervals {
				c.classify(addrs)
			}
		}()
	}
	for i := 0; i < n; i++ {
		c.workerWG.Add(1)
		go func() {
			defer c.workerWG.Done()
			for job := range c.jobs {
				metEncodeQueue.Dec()
				if c.workerErr() == nil {
					if err := c.writeChunk(job.id, job.addrs); err != nil {
						c.setWorkerErr(err)
					}
				}
				// Recycle the buffer (even while draining after a
				// failure).
				c.recycleBuf(job.addrs)
			}
		}()
	}
}

// chunkBuf returns a recycled chunk buffer when one is free, a fresh one
// with the initial chunk-buffer capacity while fewer than the bound
// exist, or else waits for the classify goroutine or a worker to recycle
// one.
//
//atc:pool put=recycleBuf
func (c *Compressor) chunkBuf() []uint64 {
	select {
	case buf := <-c.freeBufs:
		return buf[:0]
	default:
	}
	if c.nBufs < cap(c.freeBufs) {
		c.nBufs++
		return make([]uint64, 0, c.bufCap)
	}
	return (<-c.freeBufs)[:0]
}

// recycleBuf returns a chunk buffer to the free list, which has room for
// every buffer chunkBuf hands out.
func (c *Compressor) recycleBuf(buf []uint64) {
	c.freeBufs <- buf
}

// newChunk assigns the next chunk id and appends its chunk record.
func (c *Compressor) newChunk() int {
	id := c.nextChunk
	c.nextChunk++
	c.nChunks++
	c.records = append(c.records, record{tag: recChunk, chunkID: id})
	return id
}

// sendChunk queues a chunk for the worker pool; the buffer's ownership
// transfers with it.
func (c *Compressor) sendChunk(id int, addrs []uint64) {
	metEncodeQueue.Inc()
	c.jobs <- chunkJob{id: id, addrs: addrs}
}

// classify computes an interval's histograms into the spare Set, matches
// them against the phase table and either appends an imitation record or
// assigns the next chunk id, inserts into the table and sends the chunk
// to the worker pool. It runs on the one classify goroutine, so the
// record sequence is the same for every worker count. Only full-length
// intervals may match or enter the table: a short final chunk cannot
// stand in for a full interval. addrs is consumed on every path. Any
// failure latches into werr; after one, intervals are recycled unread so
// the caller never waits on a dead pipeline.
func (c *Compressor) classify(addrs []uint64) {
	if c.workerErr() != nil {
		c.recycleBuf(addrs)
		return
	}
	hist := c.spare
	if hist == nil {
		hist = new(histogram.Set)
	}
	histogram.ComputeInto(hist, addrs)
	// hist stays the spare unless the table takes it.
	c.spare = hist
	full := len(addrs) == c.opts.IntervalLen
	if full {
		if matchID, _, ok := c.table.Match(hist); ok {
			if chunkHist, ok := c.table.Lookup(matchID); ok {
				tr := histogram.BuildTranslations(chunkHist, hist, c.opts.Epsilon)
				c.records = append(c.records, record{tag: recImitate, chunkID: matchID, trans: tr})
				c.nImit++
				metEncodeImit.Inc()
			} else {
				c.setWorkerErr(fmt.Errorf("atc: internal: matched chunk %d not resident", matchID))
			}
			c.recycleBuf(addrs)
			return
		}
	}
	id := c.newChunk()
	if full {
		c.spare = c.table.Insert(id, hist)
	}
	c.sendChunk(id, addrs)
}

// dispatch routes the filled chunk buffer by ownership transfer, no
// copy: an interval to the classify goroutine, a segment straight to the
// worker pool. The caller continues in a buffer from chunkBuf.
func (c *Compressor) dispatch(addrs []uint64) {
	if c.intervals != nil {
		c.intervals <- addrs
		return
	}
	c.sendChunk(c.newChunk(), addrs)
}

// shutdownPipeline waits for the classify goroutine (which feeds the job
// queue), closes the job queue, waits for in-flight chunks and reports
// the first deferred error. Safe to call more than once.
func (c *Compressor) shutdownPipeline() error {
	if c.jobs != nil && !c.poolClosed {
		c.poolClosed = true
		if c.intervals != nil {
			close(c.intervals)
			<-c.classifyDone
		}
		close(c.jobs)
		c.workerWG.Wait()
	}
	return c.workerErr()
}

// createChunkFileHook creates every chunk blob; fault-injection tests swap
// it for a failing implementation.
var createChunkFileHook = func(st store.Store, name string) (io.WriteCloser, error) {
	return st.Create(name)
}

// segmentBufCap caps the initial allocation of the segment buffer so a
// large SegmentAddrs (128 MB at the default) is not committed up front for
// traces that never fill a segment; append growth takes over beyond it.
const segmentBufCap = 1 << 20

// Create starts a new compressed trace at path: a directory by default
// (created if needed; it must be empty of ATC files), a single-file .atc
// archive when opts.Archive is set, or whatever container opts.Store
// names (path is then informational only).
func Create(path string, opts Options) (*Compressor, error) {
	opts.fillDefaults()
	// Validate everything that can fail cheaply before touching the
	// filesystem: an unknown mode or back end must not leave a stray
	// directory or archive file (or an orphan chunk blob) behind.
	switch opts.Mode {
	case Lossless, Lossy:
	default:
		return nil, fmt.Errorf("atc: unknown mode %v", opts.Mode)
	}
	backend, err := xcompress.Lookup(opts.Backend)
	if err != nil {
		return nil, err
	}
	st := opts.Store
	ownStore := false
	if st == nil {
		if opts.Archive {
			ast, err := store.CreateArchive(path)
			if err != nil {
				return nil, err
			}
			st = ast
		} else {
			ds, err := store.CreateDir(path)
			if err != nil {
				return nil, err
			}
			st = ds
		}
		ownStore = true
	}
	if b, err := st.Open(manifestName); err == nil {
		b.Close()
		return nil, fmt.Errorf("atc: %s already contains a compressed trace", path)
	}
	c := &Compressor{
		path:      path,
		st:        st,
		ownStore:  ownStore,
		opts:      opts,
		backend:   backend,
		nextChunk: 1,
	}
	switch {
	case opts.Mode == Lossless && !opts.segmented():
		if c.stream, err = c.openChunk(1, opts.BufferAddrs); err != nil {
			c.abortCreate()
			return nil, err
		}
		c.newChunk()
		return c, nil
	case opts.Mode == Lossless:
		c.chunkLen = opts.SegmentAddrs
		c.bufCap = min(opts.SegmentAddrs, segmentBufCap)
	default:
		c.chunkLen = opts.IntervalLen
		c.bufCap = opts.IntervalLen
		c.table = phase.New(opts.TableCapacity, opts.Epsilon)
	}
	c.buf = make([]uint64, 0, c.bufCap)
	c.startWorkers()
	return c, nil
}

// abortCreate undoes store creation after a failed trace start. Only
// stores Create built itself are aborted; a caller-provided Store is the
// caller's to clean up.
func (c *Compressor) abortCreate() {
	if c.ownStore {
		store.Abort(c.st)
	}
}

func (c *Compressor) chunkName(id int) string {
	return fmt.Sprintf("%d.%s", id, c.opts.Backend)
}

// blobWriter is the one write stack for every compressed blob: the blob,
// a 64 KiB bufio buffer, the back-end writer and — for chunk blobs — a
// bytesort encoder on top.
type blobWriter struct {
	f   io.WriteCloser
	bw  *bufio.Writer
	cw  io.WriteCloser
	enc *bytesort.Encoder // chunk blobs only
}

// openBlob creates the named blob with create and stacks the back end on
// it.
func (c *Compressor) openBlob(create func(store.Store, string) (io.WriteCloser, error), name string) (*blobWriter, error) {
	f, err := create(c.st, name)
	if err != nil {
		return nil, fmt.Errorf("atc: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cw, err := c.backend.NewWriter(bw)
	if err != nil {
		f.Close()
		c.st.Remove(name) // best effort; uncommitted archive blobs leave nothing
		return nil, err
	}
	return &blobWriter{f: f, bw: bw, cw: cw}, nil
}

// openChunk opens chunk id's blob with a bytesort encoder of bufAddrs
// addresses on top.
func (c *Compressor) openChunk(id, bufAddrs int) (*blobWriter, error) {
	w, err := c.openBlob(createChunkFileHook, c.chunkName(id))
	if err != nil {
		return nil, err
	}
	w.enc = bytesort.NewEncoder(w.cw, bufAddrs)
	return w, nil
}

// close finishes the layers top down — encoder, back end, bufio flush —
// and closes the blob on every path, so a failure never leaks the
// descriptor. The first error wins.
func (w *blobWriter) close() error {
	var err error
	if w.enc != nil {
		err = w.enc.Close()
	}
	if e := w.cw.Close(); err == nil {
		err = e
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if e := w.f.Close(); err == nil {
		err = e
	}
	return err
}

// Code appends one 64-bit value to the trace (the paper's atc_code). A
// chunk-compression failure from an earlier chunk is deferred and
// returned by a later Code call (or by Close).
func (c *Compressor) Code(x uint64) error {
	if c.err != nil {
		return c.err
	}
	if err := c.workerErr(); err != nil {
		c.err = err
		return err
	}
	if c.closed {
		return fmt.Errorf("%w: Code", ErrClosed)
	}
	c.total++
	if c.stream != nil {
		if err := c.stream.enc.Write(x); err != nil {
			c.err = err
			return err
		}
		return nil
	}
	c.buf = append(c.buf, x)
	if len(c.buf) == c.chunkLen {
		c.dispatch(c.buf)
		c.buf = c.chunkBuf()
	}
	return nil
}

// CodeSlice appends many values, ingesting in bulk: addresses are copied
// to the current chunk buffer up to each boundary instead of going
// through per-address Code calls. A deferred worker error surfaces at
// entry and at every chunk boundary, so a caller streaming large slices
// stops feeding a dead pipeline within one chunk.
//
//atc:hotpath
func (c *Compressor) CodeSlice(xs []uint64) error {
	if c.err != nil {
		return c.err
	}
	if err := c.workerErr(); err != nil {
		c.err = err
		return err
	}
	if c.closed {
		//atc:ignore hotalloc error construction on the terminal use-after-close path, not the streaming loop
		return fmt.Errorf("%w: Code", ErrClosed)
	}
	if c.stream != nil {
		if err := c.stream.enc.WriteSlice(xs); err != nil {
			c.err = err
			return err
		}
		c.total += int64(len(xs))
		return nil
	}
	for len(xs) > 0 {
		n := min(c.chunkLen-len(c.buf), len(xs))
		//atc:ignore hotalloc n is clamped to the room left below chunkLen, so append grows a buffer at most to chunkLen, once: recycled buffers keep that capacity
		c.buf = append(c.buf, xs[:n]...)
		c.total += int64(n)
		xs = xs[n:]
		if len(c.buf) == c.chunkLen {
			c.dispatch(c.buf)
			c.buf = c.chunkBuf()
			if err := c.workerErr(); err != nil {
				c.err = err
				return err
			}
		}
	}
	return nil
}

// writeChunk stores one chunk as a bytesorted, back-end-compressed blob.
// Only pool workers call it, concurrently; it touches only immutable
// Compressor fields (st, opts, backend), and the store's Create is
// concurrent-safe by contract.
func (c *Compressor) writeChunk(id int, addrs []uint64) error {
	start := time.Now()
	w, err := c.openChunk(id, min(c.opts.BufferAddrs, len(addrs)))
	if err != nil {
		return err
	}
	err = w.enc.WriteSlice(addrs)
	if e := w.close(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}
	metCompressSec.ObserveDuration(time.Since(start))
	metEncodeChunks.Inc()
	return nil
}

// Close flushes all state — dispatching the final, possibly short chunk
// and draining the pipeline — writes INFO and MANIFEST (the paper's
// atc_close) and finalizes the store (a single-file archive writes its
// table of contents here). Any deferred chunk-compression error not yet
// surfaced by Code is returned here. The Compressor cannot be used
// afterwards.
func (c *Compressor) Close() error {
	if c.err != nil {
		c.shutdownPipeline()
		c.abortCreate()
		return c.err
	}
	if c.closed {
		return nil
	}
	var err error
	if c.stream != nil {
		err = c.stream.close()
	} else {
		// The final chunk rides the same pipeline as every other, so the
		// record sequence stays in trace order.
		if len(c.buf) > 0 {
			c.dispatch(c.buf)
		}
		c.buf = nil
		err = c.shutdownPipeline()
	}
	if err == nil {
		err = c.writeInfo()
	}
	if err == nil {
		err = c.writeManifest()
	}
	if err != nil {
		c.err = err
		c.abortCreate()
		return err
	}
	if err := c.st.Close(); err != nil {
		c.err = err
		return err
	}
	c.closed = true
	return nil
}

// Stats reports compression counters; valid after Close.
func (c *Compressor) Stats() Stats {
	intervals := int64(1)
	if c.opts.Mode == Lossy {
		intervals = c.nChunks + c.nImit
	}
	return Stats{
		Mode:       c.opts.Mode,
		TotalAddrs: c.total,
		Intervals:  intervals,
		Chunks:     c.nChunks,
		Imitations: c.nImit,
	}
}

func (c *Compressor) writeManifest() error {
	var b strings.Builder
	fmt.Fprintf(&b, "atc %d\n", c.opts.formatVersion())
	fmt.Fprintf(&b, "mode %s\n", c.opts.Mode)
	fmt.Fprintf(&b, "backend %s\n", c.opts.Backend)
	return store.WriteBlob(c.st, manifestName, []byte(b.String()))
}

func (c *Compressor) writeInfo() error {
	blob, err := c.openBlob(store.Store.Create, infoBase+"."+c.opts.Backend)
	if err != nil {
		return err
	}
	w := &infoWriter{w: bufio.NewWriter(blob.cw)}
	w.bytes([]byte(infoMagic))
	w.byte(byte(c.opts.formatVersion()))
	w.byte(byte(c.opts.Mode))
	w.uvarint(uint64(c.opts.IntervalLen))
	w.uvarint(uint64(c.opts.BufferAddrs))
	if c.opts.formatVersion() >= infoVersion2 {
		w.uvarint(uint64(c.opts.SegmentAddrs))
	}
	var eps [8]byte
	binary.LittleEndian.PutUint64(eps[:], math.Float64bits(c.opts.Epsilon))
	w.bytes(eps[:])
	for _, r := range c.records {
		w.byte(r.tag)
		w.uvarint(uint64(r.chunkID))
		if r.tag == recImitate {
			w.byte(r.trans.Mask)
			for j := 0; j < histogram.Positions; j++ {
				if r.trans.Mask&(1<<uint(j)) != 0 {
					w.bytes(r.trans.T[j][:])
				}
			}
		}
	}
	w.byte(recEnd)
	w.uvarint(uint64(c.total))
	err = w.flush()
	if e := blob.close(); err == nil {
		err = e
	}
	return err
}

// infoWriter latches the first write error so every INFO field write is
// checked without per-call boilerplate; flush surfaces the latched error
// before attempting the final Flush. A full disk therefore fails Close
// instead of silently truncating the INFO stream.
type infoWriter struct {
	w   *bufio.Writer
	err error
}

func (iw *infoWriter) byte(b byte) {
	if iw.err == nil {
		iw.err = iw.w.WriteByte(b)
	}
}

func (iw *infoWriter) bytes(p []byte) {
	if iw.err == nil {
		_, iw.err = iw.w.Write(p)
	}
}

func (iw *infoWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	iw.bytes(buf[:n])
}

func (iw *infoWriter) flush() error {
	if iw.err != nil {
		return iw.err
	}
	return iw.w.Flush()
}

// StoreSize reports the total compressed size of a trace at path — the
// summed file sizes for a directory trace, the whole file size (header,
// payloads and TOC) for a single-file archive, the probed object size for
// an http(s) URL. It is the numerator of the paper's bits-per-address
// metric.
func StoreSize(path string) (int64, error) {
	if store.IsRemoteURL(path) {
		return store.RemoteSize(path)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !fi.IsDir() {
		return fi.Size(), nil
	}
	return store.OpenDir(path).Size()
}

// BitsPerAddress computes the paper's BPA metric for a compressed trace —
// a directory or a single-file archive.
func BitsPerAddress(path string, addrs int64) (float64, error) {
	if addrs <= 0 {
		return 0, errors.New("atc: nonpositive address count")
	}
	size, err := StoreSize(path)
	if err != nil {
		return 0, err
	}
	return float64(size*8) / float64(addrs), nil
}
