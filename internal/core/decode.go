package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atc/internal/bytesort"
	"atc/internal/histogram"
	"atc/internal/obs"
	"atc/internal/store"
	"atc/internal/xcompress"
)

// DecodeOptions configures decompression.
type DecodeOptions struct {
	// Backend overrides the back end named in MANIFEST (rarely needed).
	Backend string
	// IgnoreTranslations disables byte translation during imitation —
	// the ablation of the paper's Figure 4. The decoded trace then reuses
	// chunks verbatim and understates the trace footprint.
	IgnoreTranslations bool
	// ChunkCache is the cache decompressed chunks are kept in — typically
	// one trace's view of a SharedChunkCacheBytes shared by a pool of
	// readers, so a hot chunk decompresses once per process instead of
	// once per reader. When nil the Decompressor gets a private cache
	// holding privateCacheChunks chunks of the trace's interval or
	// segment length. Sequential lossy decoding pins imitated chunks
	// here; DecodeRange pins every chunk it touches except the legacy v1
	// stream, which is never materialized.
	ChunkCache *TraceChunkCache
	// Readahead bounds the number of decoded batches a background
	// pipeline decompresses ahead of Decode, overlapping back-end
	// decompression with consumption. For lossy and segmented lossless
	// traces it is also the number of spans (intervals/segments)
	// decoding concurrently, in that pipeline and in DecodeAll, which
	// decodes up to Readahead spans at once straight into its output.
	// 0 selects the default (2); negative runs the same decode on the
	// calling goroutine, for Decode and DecodeAll alike. The decoded
	// stream is identical either way. The pipeline starts lazily on the
	// first Decode and restarts after every Seek, so range access never
	// prefetches chunks past the window it was asked for.
	Readahead int
	// Store overrides the blob container the trace is read from; when nil
	// the path passed to Open is inspected — a regular file opens as a
	// single-file .atc archive, anything else as a directory. A
	// caller-provided Store is not closed by Close.
	Store store.Store
	// Archive forces interpreting the path as a single-file archive
	// (ignored when Store is set): a directory at that path is then an
	// error rather than a fallback.
	Archive bool

	// batchAddrs bounds the number of addresses per delivered batch,
	// which caps buffered decode memory at a multiple of it regardless of
	// the trace's IntervalLen/SegmentAddrs. 0 selects DefaultBatchAddrs;
	// tests set small values to force many batches per span.
	batchAddrs int
}

// DefaultReadahead is the default number of buffered readahead batches.
const DefaultReadahead = 2

// DefaultBatchAddrs is the default decode batch size: 64 Ki addresses,
// 512 KB per buffered batch.
const DefaultBatchAddrs = 1 << 16

// privateCacheChunks is how many chunks of the trace's stride a
// Decompressor's private chunk cache holds.
const privateCacheChunks = 8

// aheadBatch is one decode unit — up to batchAddrs decoded addresses —
// or the error that ended production.
type aheadBatch struct {
	addrs []uint64
	// buf is the recyclable backing buffer of addrs, nil when addrs
	// aliases shared memory (a cached chunk). The consumer returns it to
	// the batch free list once the batch is drained.
	buf []uint64
	err error
}

// span is one entry of the chunk index: the record backing the absolute
// address range [start, end) of the trace.
type span struct {
	start, end int64
	rec        record
}

// ChunkSpan is the exported view of one chunk-index entry: the trace
// positions [Start, End) are decoded from chunk ChunkID — directly for
// chunk records, or as a byte-translated imitation of that (source) chunk
// when Imitation is set.
type ChunkSpan struct {
	// Start and End delimit the absolute trace positions [Start, End)
	// this record covers, in addresses.
	Start, End int64
	// ChunkID is the backing chunk blob; for imitations it is the source
	// chunk the interval is replayed from.
	ChunkID int
	// Imitation marks a lossy imitation record (decoded by translating a
	// copy of the source chunk).
	Imitation bool
}

// Decompressor streams a compressed trace back out (the paper's 'd' mode)
// and serves random access over it: decoding is driven by an explicit
// chunk index built at Open — a table mapping every interval/segment
// record to its absolute address range and backing chunk — so Seek and
// DecodeRange can jump straight to the chunks covering a window instead
// of consuming records in order. One span reader decodes every chunk
// read; the legacy v1 layout is a single span whose reader parks between
// reads, so forward access resumes it.
type Decompressor struct {
	st          store.Store
	ownStore    bool // opened from a path: Close releases it
	opts        DecodeOptions
	backend     xcompress.Backend
	backendName string

	version      int
	mode         Mode
	intervalLen  int
	bufferAddrs  int
	segmentAddrs int
	epsilon      float64
	records      []record
	total        int64

	// index maps every record to its absolute address range, in trace
	// order: index[i] covers [index[i].start, index[i].end). It is the
	// single source of decoding truth for every format.
	index []span

	// segmented marks a version-2 lossless trace (one chunk per segment);
	// legacy marks the v1 lossless layout, whose single chunk is one span
	// covering the whole trace, always stream-decoded.
	segmented bool
	legacy    bool

	storeClosed bool
	closed      bool

	// parked is the legacy span's reader between reads (legacyReader):
	// only the path reading v1 touches it — a pipeline span task, the
	// inline decode or fill (DecodeAll and DecodeRangeAppend), whose one
	// legacy span the caller decodes.
	parked *spanReader

	// Consumption state: cursor is the absolute trace position of the
	// next address Decode returns; pending/pos hold the current batch.
	// pendingBuf is the batch's recyclable backing buffer (nil when the
	// batch aliases a cached chunk), returned to batchFree when drained.
	cursor     int64
	pending    []uint64
	pendingBuf []uint64
	pos        int

	// batchFree recycles batch buffers (capacity batchAddrs each) between
	// the producer tasks that fill them and the consumer that drains
	// them, bounding the pipeline's total allocation.
	batchFree chan []uint64

	// inline is the open span when Readahead < 0: Decode pulls batches
	// from it on the caller's goroutine instead of from a pipeline.
	inline *spanReader

	// cache holds decompressed chunks: the caller's shared view, or a
	// private one sized at Open from the trace's stride.
	cache *TraceChunkCache

	// readerFree recycles complete per-chunk decode units (blob-front
	// bufio buffer, backend decode state, bytesort inverse-sort scratch)
	// across chunks, so steady-state decompression stops allocating
	// working memory.
	readerFree chan *backendReader

	// imitated, for lossy traces, holds every chunk ID that some
	// imitation record replays. A chunk absent from it has exactly one
	// consumer — its own chunk record in the sequential pass — so the
	// batched pipeline stream-decodes it straight into batch buffers
	// instead of materializing and caching the whole interval.
	imitated map[int]struct{}

	// chunkReads counts chunk-blob opens (not cache hits) — the
	// observable that range decoding touches only the chunks it must.
	chunkReads atomic.Int64

	// traceRec, when non-nil, receives per-stage timings and chunk-touch
	// counts for the request in flight (SetTrace). Written only between
	// decodes.
	traceRec *obs.Trace

	// Readahead pipeline. When ahead is non-nil a producer goroutine owns
	// the decoding state (parked, cache) and streams batches into the
	// channel; Decode only touches pending/pos/cursor. The pipeline
	// starts lazily at the current cursor and is quiesced (stopReadahead)
	// before any state the producer owns is touched from the caller.
	ahead     chan aheadBatch
	aheadStop chan struct{}
	aheadWG   sync.WaitGroup

	err error
}

// Open prepares a compressed trace for decoding. The path names a trace
// directory or a single-file .atc archive (detected by a stat, or forced
// by opts.Archive); opts.Store overrides both with an explicit container.
func Open(path string, opts DecodeOptions) (*Decompressor, error) {
	if opts.Readahead == 0 {
		opts.Readahead = DefaultReadahead
	}
	if opts.batchAddrs == 0 {
		opts.batchAddrs = DefaultBatchAddrs
	}
	st := opts.Store
	ownStore := false
	if st == nil {
		ownStore = true
		switch fi, err := os.Stat(path); {
		case store.IsRemoteURL(path):
			// An http(s) URL opens as a remote single-file archive read
			// over ranged GETs (the stat above fails on URLs; its error is
			// superseded by this branch).
			rst, err := store.OpenRemote(path, store.RemoteOptions{})
			if err != nil {
				return nil, err
			}
			st = rst
		case opts.Archive, err == nil && !fi.IsDir():
			ast, err := store.OpenArchive(path)
			if err != nil {
				return nil, err
			}
			st = ast
		default:
			// Directory, or missing path: the directory store reports the
			// latter as a missing MANIFEST, the historical error shape.
			st = store.OpenDir(path)
		}
	}
	d := &Decompressor{st: st, ownStore: ownStore, opts: opts, cache: opts.ChunkCache}
	closeStore := func() {
		if ownStore {
			st.Close()
		}
	}
	mi, err := readManifest(st)
	if err != nil {
		// A Backend override exists precisely to recover traces with a
		// damaged or missing MANIFEST; the version is then taken from the
		// INFO stream alone. Unsupported versions are never tolerated.
		if opts.Backend == "" || errors.Is(err, ErrUnsupportedVersion) {
			closeStore()
			return nil, err
		}
		mi = manifestInfo{version: 0}
	}
	backendName := opts.Backend
	if backendName == "" {
		backendName = mi.backend
	}
	backend, err := xcompress.Lookup(backendName)
	if err != nil {
		closeStore()
		return nil, err
	}
	d.backend = backend
	d.backendName = backendName
	// Bound retained decode state to the pipeline's concurrency: at most
	// Readahead span tasks decode at once, plus the random-access path.
	par := max(d.opts.Readahead, 1)
	d.readerFree = make(chan *backendReader, par+2)
	// Enough batch buffers for the ahead channel, the consumer's pending
	// batch, and every in-flight span task's slot plus working buffer;
	// they survive pipeline restarts, so a seek-heavy consumer allocates
	// its batch working set once.
	d.batchFree = make(chan []uint64, 4*par+8)
	if err := d.readInfo(backendName, mi.version); err != nil {
		closeStore()
		return nil, err
	}
	d.segmented = d.mode == Lossless && d.version >= infoVersion2
	d.legacy = d.mode == Lossless && !d.segmented
	if err := d.buildIndex(); err != nil {
		closeStore()
		return nil, err
	}
	stride := int64(d.intervalLen)
	if d.segmented {
		stride = int64(d.segmentAddrs)
	}
	// A batch never spans records, so a batchAddrs above the trace's
	// stride would only oversize the recycled buffers: clamp it.
	if !d.legacy && stride > 0 && int64(d.opts.batchAddrs) > stride {
		d.opts.batchAddrs = int(stride)
	}
	if d.cache == nil {
		d.cache = NewSharedChunkCacheBytes(privateCacheChunks * stride * 8).ForTrace("")
	}
	return d, nil
}

// buildIndex derives the chunk index from the record sequence: every
// record covers exactly one stride of addresses (the interval length for
// lossy traces, the segment length for segmented lossless) except the
// last, which covers the nonzero remainder. The untrusted INFO trailer
// total must be consistent with the record count, so a corrupt trailer is
// rejected at Open instead of surfacing as a mid-decode length mismatch.
// The legacy v1 lossless layout is one span covering the whole trace.
func (d *Decompressor) buildIndex() error {
	if d.legacy {
		if len(d.records) != 1 || d.records[0].tag != recChunk {
			return fmt.Errorf("%w: legacy lossless trace has %d records, want one chunk record",
				ErrCorrupt, len(d.records))
		}
		d.index = []span{{start: 0, end: d.total, rec: d.records[0]}}
		return nil
	}
	stride := int64(d.intervalLen)
	what := "interval"
	if d.segmented {
		stride = int64(d.segmentAddrs)
		what = "segment"
	}
	n := int64(len(d.records))
	if n == 0 {
		if d.total != 0 {
			return fmt.Errorf("%w: no records but trailer says %d addresses", ErrCorrupt, d.total)
		}
		return nil
	}
	if stride <= 0 {
		return fmt.Errorf("%w: %d records with zero %s length", ErrCorrupt, n, what)
	}
	// total must land in ((n-1)*stride, n*stride]; compare via division so
	// a corrupt record count cannot overflow the product.
	if d.total <= 0 || (d.total-1)/stride != n-1 {
		return fmt.Errorf("%w: %d %s records at length %d inconsistent with trailer total %d",
			ErrCorrupt, n, what, stride, d.total)
	}
	d.index = make([]span, n)
	for i, rec := range d.records {
		start := int64(i) * stride
		end := start + stride
		if end > d.total {
			end = d.total
		}
		d.index[i] = span{start: start, end: end, rec: rec}
	}
	if d.mode == Lossy {
		// Chunks replayed by at least one imitation must be materialized
		// and cached; everything else can stream (streamableSpan).
		d.imitated = make(map[int]struct{})
		for _, rec := range d.records {
			if rec.tag == recImitate {
				d.imitated[rec.chunkID] = struct{}{}
			}
		}
	}
	return nil
}

// spanIndex returns the position of the index entry covering addr — the
// first span whose end exceeds it (len(index) when addr is at or past the
// end of the trace).
func (d *Decompressor) spanIndex(addr int64) int {
	return sort.Search(len(d.index), func(i int) bool { return d.index[i].end > addr })
}

// startReadahead launches the producer pipeline that decompresses up to n
// batches ahead of Decode, starting at the current cursor. It takes
// ownership of the parked legacy reader and the chunk cache; Decode then
// only consumes from the ahead channel.
func (d *Decompressor) startReadahead(n int) {
	d.ahead = make(chan aheadBatch, n)
	d.aheadStop = make(chan struct{})
	start := d.cursor
	d.aheadWG.Add(1)
	go func() {
		defer d.aheadWG.Done()
		defer close(d.ahead)
		d.produceSpansBatched(n, start)
	}()
}

// batchBuf takes a recycled batch buffer, or allocates a fresh one with
// capacity batchAddrs.
//
//atc:pool put=recycleBatch
func (d *Decompressor) batchBuf() []uint64 {
	select {
	case b := <-d.batchFree:
		return b[:0]
	default:
	}
	return make([]uint64, 0, d.opts.batchAddrs)
}

// recycleBatch returns a drained batch buffer to the free list (dropped
// when full; nil is ignored).
func (d *Decompressor) recycleBatch(buf []uint64) {
	if buf == nil {
		return
	}
	select {
	case d.batchFree <- buf[:0]:
	default:
	}
}

// stopReadahead quiesces production: after it returns, no goroutine
// touches the decoder, buffered batches are discarded and the inline
// span (Readahead < 0) is closed. The consumption cursor is untouched, so
// a later Decode (or Seek) resumes — restarting production lazily —
// without skipping addresses.
func (d *Decompressor) stopReadahead() {
	if d.inline != nil {
		d.inline.close()
		d.inline = nil
	}
	if d.ahead == nil {
		return
	}
	close(d.aheadStop)
	// Unblock a producer parked on a full channel, then wait for it to
	// exit before touching anything it owned. Drained batches were never
	// delivered, so their buffers go straight back to the free list — a
	// seek-heavy consumer keeps its batch working set across restarts.
	for b := range d.ahead {
		d.recycleBatch(b.buf)
	}
	d.aheadWG.Wait()
	d.ahead = nil
	d.aheadStop = nil
}

// stopping reports whether the readahead pipeline is being torn down;
// it is always false outside the pipeline.
func (d *Decompressor) stopping() bool {
	select {
	case <-d.aheadStop:
		return true
	default:
		return false
	}
}

// deliver sends one batch on ch — the ahead channel, or a span task's
// slot — aborting if the pipeline was stopped. It reports whether
// production should continue. The stop channel is polled first so a stop
// that is draining the ahead channel cannot keep the producer decoding to
// the end of the trace.
func (d *Decompressor) deliver(ch chan aheadBatch, b aheadBatch) bool {
	if d.stopping() {
		return false
	}
	select {
	case ch <- b:
		return b.err == nil
	case <-d.aheadStop:
		return false
	}
}

// produceSpansBatched is the decode pipeline for every format: every
// span streams through its own bounded slot of batches, up to par spans
// decoding concurrently, with delivery strictly in trace order.
// Peak buffered memory is a multiple of batchAddrs, not of
// IntervalLen/SegmentAddrs. The dispatcher opens the spans, so chunks
// that imitations replay load (and pin) there, serially, while slicing,
// byte translation and stream decoding fan out across the span tasks.
func (d *Decompressor) produceSpansBatched(par int, start int64) {
	slots := make(chan chan aheadBatch, par)
	var tasks sync.WaitGroup
	d.aheadWG.Add(1)
	go func() { // dispatcher
		defer d.aheadWG.Done()
		defer close(slots)
		// Every Add below happens on this goroutine, and every task exits
		// on aheadStop even when delivery stopped early, so this Wait
		// terminates once stopReadahead fires. stopReadahead blocks on
		// aheadWG, so no task outlives it.
		defer tasks.Wait()
		for i := d.spanIndex(start); i < len(d.index); i++ {
			r, err := d.openSpan(d.index[i], start, false)
			slot := make(chan aheadBatch, 2)
			select {
			case slots <- slot:
			case <-d.aheadStop:
				return
			}
			if err != nil {
				d.deliver(slot, aheadBatch{err: err})
				close(slot)
				return
			}
			tasks.Add(1)
			go func() {
				defer tasks.Done()
				defer close(slot)
				defer r.close()
				for {
					b, ok := r.next()
					if !ok || !d.deliver(slot, b) {
						return
					}
				}
			}()
		}
	}()
	// In-order delivery: drain each span's batches completely before
	// moving to the next.
	for slot := range slots {
		for b := range slot {
			if !d.deliver(d.ahead, b) {
				return
			}
		}
	}
}

// spanReader yields one span's addresses. It is the one way decoded
// addresses leave a span: the pipeline's span tasks and the inline
// (Readahead < 0) Decode take batches from next; DecodeAll, range windows
// (both through fill) and chunk loads into the cache (readChunkFile)
// append through appendN; and both copy out through copyTo.
type spanReader struct {
	d  *Decompressor
	sp span
	// skip counts the leading addresses still to drop: a span opened at a
	// position inside it, after a seek, starts mid-record.
	skip int64
	// chunk is the materialized (cached, immutable) chunk a sliced span
	// reads from, at offset off; nil when the span stream-decodes.
	chunk []uint64
	off   int
	// trans is the imitation's translation applied to every copy out of
	// chunk; nil when the addresses leave the chunk unchanged.
	trans *histogram.Translations
	// Stream state, opened by the first fill: the timed chunk blob, its
	// pooled decode unit and the count of addresses decoded so far.
	blob io.Closer
	tf   timedReader
	pr   *backendReader
	got  int64
	eof  bool
	// fetchNS and decNS split the stream's wall time between the blob's
	// reads and the back-end/bytesort decode, for the stage histograms.
	fetchNS, decNS int64
}

// openSpan prepares a reader over sp from trace position start on. With
// pin set (range windows) every chunk is materialized and pinned in the
// chunk cache, so a hot range working set decompresses once. Without it
// (the sequential pipeline, inline decode and DecodeAll) only chunks that
// imitations replay are: segments and lossy chunks no imitation replays
// have exactly one consumer, this pass, so they stream-decode straight
// into batch buffers or DecodeAll's output (materializing would cost a
// transient span-sized buffer, and caching would only evict chunks
// imitations still need) — unless a random-access pass already left them
// in the cache. The legacy v1 span always streams.
func (d *Decompressor) openSpan(sp span, start int64, pin bool) (*spanReader, error) {
	if d.legacy {
		return d.legacyReader(sp, start), nil
	}
	r := &spanReader{d: d, sp: sp, skip: max(start-sp.start, 0)}
	if sp.rec.tag == recImitate && !d.opts.IgnoreTranslations && sp.rec.trans.Mask != 0 {
		r.trans = sp.rec.trans
	}
	_, hot := d.imitated[sp.rec.chunkID]
	var err error
	if sp.rec.tag == recChunk && !hot && !pin {
		cached, ok := d.cache.Get(sp.rec.chunkID)
		if !ok {
			if d.mode == Lossy {
				metChunksStreamed.Inc()
			}
			return r, nil
		}
		if tr := d.traceRec; tr != nil {
			tr.CacheHit()
		}
		r.chunk = cached
	} else if r.chunk, err = d.loadChunk(sp); err != nil {
		return nil, err
	}
	if err := checkChunk(sp, r.chunk); err != nil {
		return nil, err
	}
	r.off = int(r.skip)
	return r, nil
}

// legacyReader returns the reader of the legacy v1 span from trace
// position start on: the parked reader when it has not passed start, so
// it resumes by skipping forward, else a fresh one from the start of the
// stream, the layout's only entry point.
func (d *Decompressor) legacyReader(sp span, start int64) *spanReader {
	r := d.parked
	d.parked = nil
	if r == nil || sp.start+r.got > start {
		r.release()
		r = &spanReader{d: d, sp: sp}
	}
	r.skip = start - (sp.start + r.got)
	return r
}

// checkChunk verifies a materialized chunk holds exactly the addresses
// the index assigns sp: a wrong-length chunk must surface as corruption,
// not as a silently shifted tail.
func checkChunk(sp span, chunk []uint64) error {
	if int64(len(chunk)) != sp.end-sp.start {
		return fmt.Errorf("%w: chunk %d decodes to %d addresses, index says %d",
			ErrCorrupt, sp.rec.chunkID, len(chunk), sp.end-sp.start)
	}
	return nil
}

// next returns the span's next batch; ok is false once the span is
// exhausted. A batch carrying an error is the span's last. A materialized
// chunk record yields zero-copy sub-slices of the chunk; imitations and
// streamed spans copy out into recycled batch buffers, so an imitation
// never allocates a whole-interval copy and a streamed chunk is never
// materialized whole: per-span memory is one batch plus, when streaming,
// the pooled decode unit's working buffers.
//
//atc:hotpath
func (r *spanReader) next() (aheadBatch, bool) {
	d := r.d
	if r.chunk != nil && r.trans == nil {
		if r.off >= len(r.chunk) {
			return aheadBatch{}, false
		}
		end := min(r.off+d.opts.batchAddrs, len(r.chunk))
		addrs := r.chunk[r.off:end]
		r.off = end
		return aheadBatch{addrs: addrs}, true
	}
	buf := d.batchBuf()
	n, err := r.copyTo(buf[:cap(buf)])
	if err != nil || n == 0 {
		d.recycleBatch(buf)
		return aheadBatch{err: err}, err != nil
	}
	return aheadBatch{addrs: buf[:n], buf: buf[:n]}, true
}

// copyTo copies the span's next addresses into dst and returns how many
// it wrote (0 once the span is exhausted). A materialized span copies
// from the chunk and translates an imitation's copy in place, timing the
// translation into the translate stage; a streamed span decodes into dst
// (fill).
//
//atc:hotpath
func (r *spanReader) copyTo(dst []uint64) (int, error) {
	if r.chunk == nil {
		return r.fill(dst)
	}
	d := r.d
	start := time.Now()
	n := copy(dst, r.chunk[r.off:])
	r.off += n
	if tr := d.traceRec; tr != nil {
		tr.Add(obs.StageDeliver, time.Since(start))
	}
	if r.trans != nil && n > 0 {
		start = time.Now()
		r.trans.ApplySlice(dst[:n])
		d.observeTranslate(time.Since(start))
	}
	return n, nil
}

// appendN appends the span's next n addresses to dst. The count comes from
// the untrusted INFO, so dst grows only once it is full (grow). A span
// that ends short of n is corrupt.
func (r *spanReader) appendN(dst []uint64, n int64) ([]uint64, error) {
	for n > 0 {
		if len(dst) == cap(dst) {
			dst = grow(dst, n)
		}
		got, err := r.copyTo(dst[len(dst):min(cap(dst), len(dst)+int(n))])
		if err != nil {
			return nil, err
		}
		if got == 0 {
			return nil, fmt.Errorf("%w: chunk %d ends %d addresses short of the index",
				ErrCorrupt, r.sp.rec.chunkID, n)
		}
		dst = dst[:len(dst)+got]
		n -= int64(got)
	}
	return dst, nil
}

// fill decodes the span's next addresses into dst, opening the chunk
// blob on first use and first dropping the skip leading addresses through
// a batch buffer, checking for a pipeline stop once per batch. It returns
// how many addresses it left in dst (0 once the span is exhausted or a
// stop cut the skip short) and ErrCorrupt when the chunk disagrees with
// the index (checkStream).
func (r *spanReader) fill(dst []uint64) (int, error) {
	if r.pr == nil && !r.eof {
		if err := r.openStream(); err != nil {
			r.eof = true
			return 0, err
		}
	}
	if r.skip > 0 {
		buf := r.d.batchBuf()
		defer r.d.recycleBatch(buf)
		for r.skip > 0 && !r.eof {
			if r.d.stopping() {
				return 0, nil
			}
			n, err := r.read(buf[:min(r.skip, int64(cap(buf)))])
			r.skip -= int64(n)
			if err != nil {
				return 0, err
			}
		}
	}
	if r.eof {
		return 0, nil
	}
	return r.read(dst)
}

// end checks that a streamed span read to its index count ends there: a
// longer stream fails at its first excess address instead of being
// decoded whole.
func (r *spanReader) end() error {
	var past [1]uint64
	_, err := r.fill(past[:])
	return err
}

// read is one timed ReadSlice from the decode unit, checked against the
// index's address count. An error ends the stream.
func (r *spanReader) read(dst []uint64) (int, error) {
	start, fetched := time.Now(), r.tf.ns
	n, err := r.pr.dec.ReadSlice(dst)
	r.observeFill(start, fetched)
	r.got += int64(n)
	r.eof = err != nil
	if err = r.checkStream(err); err != nil {
		r.eof = true
	}
	return n, err
}

// openStream opens the span's chunk blob behind a pooled decode unit. It
// is the one place a chunk blob is opened for decoding, so every open
// counts as a chunk read: in ChunkReads, atc_decode_chunk_loads_total
// and the request trace. The blob is timed, splitting fetch from
// decompress time.
func (r *spanReader) openStream() error {
	d := r.d
	d.chunkReads.Add(1)
	metChunkLoads.Inc()
	if tr := d.traceRec; tr != nil {
		tr.ChunkLoad()
	}
	f, err := d.st.Open(d.ChunkBlobName(r.sp.rec.chunkID))
	if err != nil {
		return fmt.Errorf("%w: missing chunk %d: %v", ErrCorrupt, r.sp.rec.chunkID, err)
	}
	r.tf = timedReader{r: f}
	start := time.Now()
	pr, err := d.getBackendReader(&r.tf)
	r.observeFill(start, 0)
	if err != nil {
		d.putBackendReader(pr)
		f.Close()
		return fmt.Errorf("%w: chunk %d: backend header: %v", ErrCorrupt, r.sp.rec.chunkID, err)
	}
	// The index says how many addresses the blob holds: a segment header
	// claiming more is corrupt before its buffers are sized.
	pr.dec.Limit(r.sp.end - r.sp.start)
	r.blob, r.pr = f, pr
	return nil
}

// checkStream turns the result of one ReadSlice (its error, with r.got
// already counting its addresses) into the error that ends the span, or
// nil to go on: decoding past the index's address count, ending short of
// it, and back-end failures are all corruption.
func (r *spanReader) checkStream(err error) error {
	want := r.sp.end - r.sp.start
	switch {
	case r.got > want:
		return fmt.Errorf("%w: chunk %d decodes past %d addresses, index says %d",
			ErrCorrupt, r.sp.rec.chunkID, r.got, want)
	case err == io.EOF && r.got != want:
		return fmt.Errorf("%w: chunk %d decodes to %d addresses, index says %d",
			ErrCorrupt, r.sp.rec.chunkID, r.got, want)
	case err != nil && err != io.EOF:
		return fmt.Errorf("%w: chunk %d: %v", ErrCorrupt, r.sp.rec.chunkID, err)
	}
	return nil
}

// close ends a read of the span. The legacy v1 reader parks for the next
// read to resume from, unless its stream ended or failed; any other
// reader is released. nil-safe.
func (r *spanReader) close() {
	if r == nil {
		return
	}
	if d := r.d; d.legacy && !r.eof {
		d.parked.release()
		d.parked = r
		return
	}
	r.release()
}

// release hands the span's decode unit back to the pool and closes its
// blob, observing the chunk's fetch/decompress split in the stage
// histograms once; nil-safe.
func (r *spanReader) release() {
	if r == nil || r.pr == nil {
		return
	}
	metDecodeStage[obs.StageFetch].Observe(float64(r.fetchNS) / 1e9)
	metDecodeStage[obs.StageDecompress].Observe(float64(r.decNS) / 1e9)
	r.d.putBackendReader(r.pr)
	r.blob.Close()
	r.pr, r.blob = nil, nil
}

// manifestInfo is the parsed MANIFEST descriptor. version 0 means
// "unknown" (tolerated only under an explicit Backend override).
type manifestInfo struct {
	version int
	backend string
}

// readManifest parses the plain-text MANIFEST, including the "atc
// <version>" line the decoder historically ignored: a trace written by a
// future format must be rejected up front, not silently mis-decoded.
func readManifest(st store.Store) (manifestInfo, error) {
	data, err := store.ReadBlob(st, manifestName)
	if err != nil {
		return manifestInfo{}, fmt.Errorf("%w: missing MANIFEST: %v", ErrCorrupt, err)
	}
	mi := manifestInfo{version: -1}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "atc":
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return manifestInfo{}, fmt.Errorf("%w: bad MANIFEST version %q", ErrCorrupt, fields[1])
			}
			mi.version = v
		case "backend":
			mi.backend = fields[1]
		}
	}
	if mi.version < 0 {
		return manifestInfo{}, fmt.Errorf("%w: MANIFEST has no atc version line", ErrCorrupt)
	}
	if mi.version < infoVersion1 || mi.version > maxInfoVersion {
		return manifestInfo{}, fmt.Errorf("%w %d in MANIFEST (this build reads 1..%d)",
			ErrUnsupportedVersion, mi.version, maxInfoVersion)
	}
	if mi.backend == "" {
		return manifestInfo{}, fmt.Errorf("%w: MANIFEST has no backend line", ErrCorrupt)
	}
	return mi, nil
}

// maxAddrCount bounds every address-count field read from the untrusted
// INFO stream (interval length, bytesort buffer, segment length, trailer
// total, chunk ids): 2^48 addresses is 2 PB of raw trace, far beyond any
// real input, so larger values can only come from corruption — and must
// not be trusted before they size an allocation.
const maxAddrCount = 1 << 48

// readCount reads one bounds-checked address-count field.
func readCount(r *bufio.Reader, what string) (int64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: short INFO (%s)", ErrCorrupt, what)
	}
	if v > maxAddrCount {
		return 0, fmt.Errorf("%w: implausible %s %d", ErrCorrupt, what, v)
	}
	return int64(v), nil
}

// readInfo parses the INFO stream. wantVersion is the version declared by
// MANIFEST (0 = unknown, under a Backend override); the two must agree.
func (d *Decompressor) readInfo(backendName string, wantVersion int) error {
	f, err := d.st.Open(infoBase + "." + backendName)
	if err != nil {
		return fmt.Errorf("%w: missing INFO: %v", ErrCorrupt, err)
	}
	defer f.Close()
	cr, err := d.backend.NewReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return err
	}
	r := bufio.NewReader(cr)
	var magicBuf [4]byte
	if _, err := io.ReadFull(r, magicBuf[:]); err != nil || string(magicBuf[:]) != infoMagic {
		return fmt.Errorf("%w: bad INFO magic", ErrCorrupt)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: short INFO", ErrCorrupt)
	}
	if int(ver) < infoVersion1 || int(ver) > maxInfoVersion {
		return fmt.Errorf("%w %d in INFO (this build reads 1..%d)",
			ErrUnsupportedVersion, ver, maxInfoVersion)
	}
	if wantVersion > 0 && int(ver) != wantVersion {
		return fmt.Errorf("%w: INFO version %d does not match MANIFEST version %d",
			ErrCorrupt, ver, wantVersion)
	}
	d.version = int(ver)
	modeB, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: short INFO", ErrCorrupt)
	}
	d.mode = Mode(modeB)
	if d.mode != Lossless && d.mode != Lossy {
		return fmt.Errorf("%w: unknown mode %d", ErrCorrupt, modeB)
	}
	il, err := readCount(r, "interval length")
	if err != nil {
		return err
	}
	d.intervalLen = int(il)
	ba, err := readCount(r, "bytesort buffer")
	if err != nil {
		return err
	}
	d.bufferAddrs = int(ba)
	if d.version >= infoVersion2 {
		sa, err := readCount(r, "segment length")
		if err != nil {
			return err
		}
		d.segmentAddrs = int(sa)
	}
	var eps [8]byte
	if _, err := io.ReadFull(r, eps[:]); err != nil {
		return fmt.Errorf("%w: short INFO", ErrCorrupt)
	}
	d.epsilon = math.Float64frombits(binary.LittleEndian.Uint64(eps[:]))
	for {
		tag, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: INFO truncated before end record", ErrCorrupt)
		}
		switch tag {
		case recEnd:
			total, err := readCount(r, "trailer total")
			if err != nil {
				return err
			}
			d.total = total
			return nil
		case recChunk:
			id, err := readCount(r, "chunk id")
			if err != nil {
				return err
			}
			d.records = append(d.records, record{tag: recChunk, chunkID: int(id)})
		case recImitate:
			if d.mode == Lossless {
				return fmt.Errorf("%w: imitation record in a lossless trace", ErrCorrupt)
			}
			id, err := readCount(r, "chunk id")
			if err != nil {
				return err
			}
			mask, err := r.ReadByte()
			if err != nil {
				return fmt.Errorf("%w: short imitation record", ErrCorrupt)
			}
			tr := &histogram.Translations{Mask: mask}
			for j := 0; j < histogram.Positions; j++ {
				if mask&(1<<uint(j)) != 0 {
					if _, err := io.ReadFull(r, tr.T[j][:]); err != nil {
						return fmt.Errorf("%w: short translation table", ErrCorrupt)
					}
				}
			}
			d.records = append(d.records, record{tag: recImitate, chunkID: int(id), trans: tr})
		default:
			return fmt.Errorf("%w: unknown record tag %d", ErrCorrupt, tag)
		}
	}
}

// ChunkBlobName reports the store blob name of a chunk id — the single
// source of the naming scheme, for the decoder and for tooling that opens
// chunk blobs directly (atcinfo -chunks).
func (d *Decompressor) ChunkBlobName(id int) string {
	return fmt.Sprintf("%d.%s", id, d.backend.Name())
}

// Mode reports the stored trace's compression mode.
func (d *Decompressor) Mode() Mode { return d.mode }

// FormatVersion reports the trace's on-disk format version (1 or 2).
func (d *Decompressor) FormatVersion() int { return d.version }

// SegmentAddrs reports the stored lossless segment length in addresses
// (0 for legacy single-chunk and lossy traces).
func (d *Decompressor) SegmentAddrs() int { return d.segmentAddrs }

// TotalAddrs reports the stored trace's length in addresses.
func (d *Decompressor) TotalAddrs() int64 { return d.total }

// IntervalLen reports the stored interval length L (lossy traces).
func (d *Decompressor) IntervalLen() int { return d.intervalLen }

// Epsilon reports the stored matching threshold (lossy traces).
func (d *Decompressor) Epsilon() float64 { return d.epsilon }

// Records reports the number of interval records (lossy traces) or
// segment records (segmented lossless traces).
func (d *Decompressor) Records() int { return len(d.records) }

// Backend reports the byte-level back end decoding this trace.
func (d *Decompressor) Backend() string { return d.backend.Name() }

// Position reports the absolute trace position (in addresses) of the next
// value Decode will return.
func (d *Decompressor) Position() int64 { return d.cursor }

// ChunkReads reports how many times a chunk blob has been opened for
// decoding — chunk-cache hits and resumed legacy v1 streams do not count.
// It is safe to call while a readahead pipeline is running.
func (d *Decompressor) ChunkReads() int64 { return d.chunkReads.Load() }

// SetTrace attaches a per-request trace recorder: subsequent synchronous
// decodes (DecodeRange and friends) accumulate stage timings and
// chunk-touch counts into t. Pass nil to detach. Must not be called
// while a decode is in flight — the intended lifetime is one ranged
// request on a pooled reader, attached before the decode and detached
// (or read) after.
func (d *Decompressor) SetTrace(t *obs.Trace) { d.traceRec = t }

// ChunkIndex returns a copy of the chunk index: one entry per record, in
// trace order, each mapping its address range to its backing chunk.
func (d *Decompressor) ChunkIndex() []ChunkSpan {
	out := make([]ChunkSpan, len(d.index))
	for i, sp := range d.index {
		out[i] = ChunkSpan{
			Start:     sp.start,
			End:       sp.end,
			ChunkID:   sp.rec.chunkID,
			Imitation: sp.rec.tag == recImitate,
		}
	}
	return out
}

// Seek repositions the decoder so the next Decode returns the address at
// absolute trace position addr; addr may be anywhere in [0, TotalAddrs()]
// (seeking to the total makes the next Decode return io.EOF). Seeking
// clears a pending io.EOF, stops any readahead in flight (it restarts
// from the new position on the next Decode) and, for lossy and segmented
// traces, costs only the decode of the chunk covering addr when it is not
// already cached. Legacy v1 lossless traces are a single compressed
// stream: the next read resumes it when addr lies ahead of where it
// stopped and reopens it otherwise, decoding and discarding up to addr
// addresses.
func (d *Decompressor) SeekTo(addr int64) error {
	if d.closed {
		return fmt.Errorf("%w: SeekTo", ErrClosed)
	}
	if addr < 0 || addr > d.total {
		return fmt.Errorf("%w: seek to %d outside trace [0, %d]", ErrOutOfRange, addr, d.total)
	}
	d.stopReadahead()
	d.recycleBatch(d.pendingBuf)
	d.pending = nil
	d.pendingBuf = nil
	d.pos = 0
	d.cursor = addr
	d.err = nil
	return nil
}

// DecodeRange decodes the addresses at trace positions [from, to) —
// exactly the slice DecodeAll()[from:to] would hold — decompressing only
// the chunks overlapping the window (every touched chunk is pinned in the
// chunk cache, so repeated ranges over a working set are served from
// memory; a legacy v1 window decodes straight from the stream, resuming
// it when the window lies ahead). The streaming position is unaffected: a
// Decode after a DecodeRange continues where it left off, though any
// readahead in flight is quiesced and restarts lazily.
func (d *Decompressor) DecodeRange(from, to int64) ([]uint64, error) {
	return d.DecodeRangeAppend([]uint64{}, from, to)
}

// DecodeRangeAppend is DecodeRange decoding into a caller-provided
// buffer: the addresses at [from, to) are appended to dst and the
// extended slice returned. A dst with capacity for the window is never
// regrown: beyond the chunk work, each span the window touches costs one
// small span reader.
func (d *Decompressor) DecodeRangeAppend(dst []uint64, from, to int64) ([]uint64, error) {
	if d.closed {
		return nil, fmt.Errorf("%w: DecodeRange", ErrClosed)
	}
	if from < 0 || to < from || to > d.total {
		return nil, fmt.Errorf("%w: range [%d, %d) outside trace [0, %d)", ErrOutOfRange, from, to, d.total)
	}
	if from == to {
		return dst, nil
	}
	d.stopReadahead()
	// Per-request tracing: the index walk is timed only when a recorder
	// is attached — too fine-grained to time every call.
	tr := d.traceRec
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	start := d.spanIndex(from)
	if tr != nil {
		tr.Add(obs.StageIndex, time.Since(t0))
	}
	dst, err := d.fill(dst, start, from, to, 1, true)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Decode returns the next trace value (the paper's atc_decode); io.EOF
// signals a complete, verified end of trace. With readahead enabled
// (the default), decompression of upcoming batches proceeds on a
// background pipeline — started lazily at the current position — while
// the caller consumes earlier values.
func (d *Decompressor) Decode() (uint64, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.pos >= len(d.pending) && !d.refill() {
		return 0, d.err
	}
	v := d.pending[d.pos]
	d.pos++
	d.cursor++
	if d.cursor > d.total {
		d.err = fmt.Errorf("%w: more addresses than trailer count %d", ErrCorrupt, d.total)
		return 0, d.err
	}
	return v, nil
}

// refill replaces the drained pending batch with the next one. At the
// end of the trace, or on a decode error, it sets d.err (io.EOF for a
// complete, verified end) and reports false.
func (d *Decompressor) refill() bool {
	for d.pos >= len(d.pending) {
		batch, ok := d.nextBatch()
		switch {
		case !ok && d.cursor != d.total:
			d.err = fmt.Errorf("%w: decoded %d addresses, trailer says %d", ErrCorrupt, d.cursor, d.total)
		case !ok:
			d.err = io.EOF
		default:
			d.err = batch.err
		}
		if d.err != nil {
			return false
		}
		d.recycleBatch(d.pendingBuf)
		d.pending = batch.addrs
		d.pendingBuf = batch.buf
		d.pos = 0
	}
	return true
}

// nextBatch returns the batch starting at the cursor; ok is false at the
// end of the trace. With Readahead > 0 it comes from the pipeline;
// otherwise it is decoded inline, on the calling goroutine, by the same
// span readers the pipeline runs.
func (d *Decompressor) nextBatch() (aheadBatch, bool) {
	if d.opts.Readahead > 0 {
		if d.ahead == nil {
			d.startReadahead(d.opts.Readahead)
		}
		b, ok := <-d.ahead
		return b, ok
	}
	for {
		if d.inline == nil {
			i := d.spanIndex(d.cursor)
			if i >= len(d.index) {
				return aheadBatch{}, false
			}
			r, err := d.openSpan(d.index[i], d.cursor, false)
			if err != nil {
				return aheadBatch{err: err}, true
			}
			d.inline = r
		}
		if b, ok := d.inline.next(); ok {
			return b, true
		}
		d.inline.close()
		d.inline = nil
	}
}

// maxDecodeAllPrealloc caps how far an output grows past its length in
// one step (grow): 2 Mi addresses (16 MB). Counts come from the untrusted
// INFO, and a corrupt one must not demand an enormous allocation before
// any decode error can surface: a lossy DecodeAll can hold a growth of
// its output and of every chunk load in flight at once.
const maxDecodeAllPrealloc = 1 << 21

// grow returns dst, copied into a new array with room for more addresses:
// twice its length, or its length plus min(rest, maxDecodeAllPrealloc)
// if that is more. rest is how many addresses are still to come; it may
// come from the untrusted INFO, so dst grows by at most its own length
// past the bound, and only as decoded data fills it. Doubling keeps an
// output over many spans linear; slices.Grow would too, but under -race
// it allocates each request twice.
func grow(dst []uint64, rest int64) []uint64 {
	more := max(len(dst), int(min(rest, maxDecodeAllPrealloc)))
	return append(make([]uint64, 0, len(dst)+more), dst...)
}

// DecodeAll decodes the remaining trace into memory. It hands out the
// rest of the pending batch, stops the readahead pipeline and then
// decodes straight into its output (fill): up to Readahead spans at once,
// each into its own part of the output, with no batch buffers in
// between. The output grows one group of spans at a time (grow), so it is
// sized from the trailer's count, capped at maxDecodeAllPrealloc, before
// any span decodes. On an error it returns the addresses before the
// failing span, and Decode repeats the error; after a complete decode
// Decode returns io.EOF.
func (d *Decompressor) DecodeAll() ([]uint64, error) {
	if d.err != nil {
		if d.err == io.EOF {
			return []uint64{}, nil
		}
		return nil, d.err
	}
	out := append([]uint64{}, d.pending[d.pos:]...)
	d.recycleBatch(d.pendingBuf)
	d.pending, d.pendingBuf, d.pos = nil, nil, 0
	d.stopReadahead()
	from := d.cursor + int64(len(out))
	out, err := d.fill(out, d.spanIndex(from), from, d.total, max(d.opts.Readahead, 1), false)
	d.cursor += int64(len(out))
	if d.err = err; err == nil {
		d.err = io.EOF
	}
	return out, err
}

// fill appends the addresses at trace positions [from, to) to out, from
// the span index[i] on, and returns the extended slice; on an error it
// returns out up to the start of the failing span. Before each span that
// does not fit, out grows (grow, bounded by what is left of the window).
// With par > 1 the spans that then fit decode as a group (fillGroup);
// otherwise, and for a group of one span, the caller decodes them in
// trace order. Range windows pass pin and par 1; DecodeAll passes par
// Readahead.
func (d *Decompressor) fill(out []uint64, i int, from, to int64, par int, pin bool) ([]uint64, error) {
	for i < len(d.index) && d.index[i].start < to {
		sp := d.index[i]
		lo, hi := max(from, sp.start), min(to, sp.end)
		if int64(cap(out)-len(out)) < hi-lo {
			out = grow(out, to-lo)
		}
		n, hot := 1, []int(nil)
		if par > 1 {
			n, hot = d.group(i, lo+int64(cap(out)-len(out)), to)
		}
		var err error
		if n > 1 {
			out, err = d.fillGroup(out, d.index[i:i+n], hot, lo, to, par)
		} else {
			n = 1
			out, err = d.fillSpan(out, sp, lo, hi, pin)
		}
		if err != nil {
			return out, err
		}
		i += n
	}
	return out, nil
}

// group reports how many spans from index[i] on decode together: those
// ending (or cut off by to) at or before the trace position limit, where
// the output's capacity ends, and together replaying no more distinct
// chunks than the chunk cache holds, so no chunk a group replays is
// evicted before the group is done with it. It also returns those
// replayed chunks' IDs.
func (d *Decompressor) group(i int, limit, to int64) (int, []int) {
	maxHot := 1
	if stride := int64(d.intervalLen) * 8; stride > 0 {
		maxHot = max(int(d.cache.c.budget/stride), 1)
	}
	var hot []int
	n := 0
	for ; i+n < len(d.index); n++ {
		sp := d.index[i+n]
		if sp.start >= to || min(to, sp.end) > limit {
			break
		}
		if _, ok := d.imitated[sp.rec.chunkID]; ok && !slices.Contains(hot, sp.rec.chunkID) {
			if len(hot) == maxHot {
				break
			}
			hot = append(hot, sp.rec.chunkID)
		}
	}
	return n, hot
}

// fillGroup decodes the spans of group into out's spare capacity, each
// span into its own sub-slice, lo being the trace position of out's end
// (the first span may start before it). Up to par workers, the caller
// one of them, take the spans; chunk records go before imitations, so
// the chunks the group replays load at the same time, and an imitation
// waits only for its own source chunk (TraceChunkCache.GetOrLoad). The
// replayed chunks already cached are first marked recently used, so
// loading the others evicts none of them. On an error the result ends
// where the first failing span in trace order starts.
func (d *Decompressor) fillGroup(out []uint64, group []span, hot []int, lo, to int64, par int) ([]uint64, error) {
	for _, id := range hot {
		d.cache.touch(id)
	}
	base := len(out)
	at := func(pos int64) int { return base + int(pos-lo) }
	order := make([]int, 0, len(group))
	for _, chunks := range []bool{true, false} {
		for k, sp := range group {
			if (sp.rec.tag == recChunk) == chunks {
				order = append(order, k)
			}
		}
	}
	errs := make([]error, len(group))
	var next atomic.Int64
	work := func() {
		for t := next.Add(1) - 1; t < int64(len(order)); t = next.Add(1) - 1 {
			k := order[t]
			sp := group[k]
			a, b := max(lo, sp.start), min(to, sp.end)
			_, errs[k] = d.fillSpan(out[at(a):at(a):at(b)], sp, a, b, false)
		}
	}
	var wg sync.WaitGroup
	for range min(par, len(group)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return out[:at(max(lo, group[k].start))], err
		}
	}
	return out[:at(min(to, group[len(group)-1].end))], nil
}

// fillSpan appends sp's addresses at trace positions [lo, hi) to out
// through one span reader, and returns out unchanged on an error. A span
// streamed to its end is checked to end there, as a loaded chunk is
// (readChunkFile).
func (d *Decompressor) fillSpan(out []uint64, sp span, lo, hi int64, pin bool) ([]uint64, error) {
	r, err := d.openSpan(sp, lo, pin)
	if err != nil {
		return out, err
	}
	defer r.close()
	next, err := r.appendN(out, hi-lo)
	if err == nil && hi == sp.end && r.chunk == nil {
		err = r.end()
	}
	if err != nil {
		return out, err
	}
	return next, nil
}

// chunkBufSize is the buffered-read size fronting chunk blobs.
const chunkBufSize = 1 << 16

// backendReader bundles one complete per-chunk decode unit: the buffered
// reader fronting the chunk blob, the backend's decompressing reader over
// it, and the bytesort decoder consuming that. dec is the decoder to
// read addresses from. The unit is pooled on Decompressor.readerFree and
// every layer's working state (bufio buffer, backend block/transform
// scratch, bytesort inverse-sort scratch) is recycled across chunks.
type backendReader struct {
	dec *bytesort.Decoder
	br  *bufio.Reader
	rr  xcompress.ResetReader
}

// getBackendReader returns a decode unit reading addresses from the
// compressed chunk stream src. Callers must hand the unit back with
// putBackendReader; it is nil-safe, so `defer d.putBackendReader(pr)`
// placed directly after the call covers every error return.
//
//atc:pool put=putBackendReader
func (d *Decompressor) getBackendReader(src io.Reader) (*backendReader, error) {
	select {
	case pr := <-d.readerFree:
		pr.br.Reset(src)
		if err := pr.rr.Reset(pr.br); err != nil {
			// Suspect state: drop the unit rather than repooling it.
			return nil, err
		}
		pr.dec.Reset(pr.rr)
		return pr, nil
	default:
	}
	br := bufio.NewReaderSize(src, chunkBufSize)
	rr, err := d.backend.NewReader(br)
	if err != nil {
		return nil, err
	}
	return &backendReader{dec: bytesort.NewDecoder(rr), br: br, rr: rr}, nil
}

// putBackendReader returns a pooled decode unit to the free list,
// detaching it from the blob it was reading so the pool never pins a
// store handle. nil, from a failed get, is ignored.
func (d *Decompressor) putBackendReader(pr *backendReader) {
	if pr == nil {
		return
	}
	pr.br.Reset(depletedReader{})
	select {
	case d.readerFree <- pr:
	default: // pool full: let the GC take it
	}
}

// depletedReader is the empty source pooled readers are parked on while
// on the free list.
type depletedReader struct{}

func (depletedReader) Read([]byte) (int, error) { return 0, io.EOF }

// readChunkFile decompresses sp's chunk blob through a span reader,
// appending exactly the index's address count (appendN), then checks that
// the chunk ends there: a longer blob fails at its first excess address
// instead of being decoded whole. Concurrent decode goroutines may call
// it.
func (d *Decompressor) readChunkFile(sp span) ([]uint64, error) {
	r := &spanReader{d: d, sp: sp}
	defer r.release()
	addrs, err := r.appendN(nil, sp.end-sp.start)
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return nil, err
	}
	return addrs, nil
}

// loadChunk returns the decoded addresses of sp's chunk through the chunk
// cache, pinning a freshly read chunk there (subject to the cache's
// eviction policy): the sequential lossy pipeline pins chunks so
// imitations avoid re-reading them, and random access pins everything it
// touches so a hot range working set decompresses once. Concurrent
// readers of one chunk through a shared cache trigger a single
// decompression. Callers check the result's length with checkChunk: a
// cached chunk may have been loaded for another span.
func (d *Decompressor) loadChunk(sp span) ([]uint64, error) {
	loaded := false
	addrs, err := d.cache.GetOrLoad(sp.rec.chunkID, func() ([]uint64, error) {
		loaded = true
		return d.readChunkFile(sp)
	})
	// Served without invoking our load — a cache (or in-flight dedup) hit
	// from this request's point of view. The cache bumps the process-wide
	// hit counter itself.
	if err == nil && !loaded {
		if tr := d.traceRec; tr != nil {
			tr.CacheHit()
		}
	}
	return addrs, err
}

// Close stops the readahead pipeline (if any) and releases open blobs,
// plus the store itself when Open built it from a path. A caller-provided
// DecodeOptions.Store stays open for further use. The Decompressor cannot
// be used afterwards — buffered readahead batches were discarded, so
// resuming would silently skip addresses.
func (d *Decompressor) Close() error {
	d.stopReadahead()
	if !d.closed {
		d.closed = true
		if d.err == nil {
			d.err = fmt.Errorf("%w: Decode", ErrClosed)
		}
	}
	d.parked.release()
	d.parked = nil
	if d.ownStore && !d.storeClosed {
		d.storeClosed = true
		return d.st.Close()
	}
	return nil
}

// Store exposes the blob container the trace is being read from, for
// tooling (atcinfo's per-blob listing).
func (d *Decompressor) Store() store.Store { return d.st }

// ReadTrace is a convenience helper decoding an entire compressed trace —
// a directory or a single-file archive.
func ReadTrace(path string) ([]uint64, error) {
	d, err := Open(path, DecodeOptions{})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.DecodeAll()
}

// WriteTrace is a convenience helper compressing an in-memory trace.
func WriteTrace(path string, addrs []uint64, opts Options) (Stats, error) {
	c, err := Create(path, opts)
	if err != nil {
		return Stats{}, err
	}
	if err := c.CodeSlice(addrs); err != nil {
		c.Close() // shut down the worker pool; reports the same latched error
		return Stats{}, err
	}
	if err := c.Close(); err != nil {
		return Stats{}, err
	}
	return c.Stats(), nil
}
