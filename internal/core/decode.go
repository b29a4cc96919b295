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
	// Readahead is the number of spans (intervals or segments) decoding
	// at once, on every path: Decode's span workers decode ahead of the
	// caller, each span into at most two recycled batch buffers, and
	// DecodeAll's straight into its output. 0 selects the default (2);
	// negative runs the same decode on the calling goroutine. The decoded
	// stream is identical either way. Decode's workers start lazily on
	// the first Decode and restart after every Seek, so range access
	// never prefetches chunks past the window it was asked for.
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

// DefaultReadahead is the default number of spans decoding at once.
const DefaultReadahead = 2

// DefaultBatchAddrs is the default decode batch size: 64 Ki addresses,
// 512 KB per buffered batch.
const DefaultBatchAddrs = 1 << 16

// privateCacheChunks is how many chunks of the trace's stride a
// Decompressor's private chunk cache holds.
const privateCacheChunks = 8

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

	// parked is the legacy span's reader between reads (legacyReader),
	// touched only by the one task reading the v1 span.
	parked *spanReader

	// pending is the batch buffer Decode hands out, pos the index of its
	// next address and cursor the trace position of pending[0]; pending
	// is empty whenever err is set.
	cursor  int64
	pending []uint64
	pos     int

	// batchFree recycles batch buffers (capacity batchAddrs each) from
	// Decode back to the span tasks that fill them.
	batchFree chan []uint64

	// cache holds decompressed chunks: the caller's shared view, or a
	// private one sized at Open from the trace's stride.
	cache *TraceChunkCache

	// readerFree recycles complete per-chunk decode units (blob-front
	// bufio buffer, backend decode state, bytesort inverse-sort scratch)
	// across chunks, so steady-state decompression stops allocating
	// working memory.
	readerFree chan *backendReader

	// imitated, for lossy traces, holds every chunk ID that some
	// imitation record replays; any other chunk has one consumer in a
	// sequential pass, its own record, so that pass streams it.
	imitated map[int]struct{}

	// chunkReads counts chunk-blob opens (not cache hits) — the
	// observable that range decoding touches only the chunks it must.
	chunkReads atomic.Int64

	// traceRec, when non-nil, receives per-stage timings and chunk-touch
	// counts for the request in flight (SetTrace). Written only between
	// decodes.
	traceRec *obs.Trace

	// Decode's span scheduler (startDecode), stopped before the caller
	// touches anything its workers own; cur is the span task Decode
	// drains.
	sched *sched
	cur   *spanTask

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
	// Retained decode state matches the scheduler: one decode unit per
	// span decoding at once; two batch buffers per span Decode has
	// claimed (the one it drains and up to Readahead waiting) and the one
	// it hands out. They survive restarts, so a seek-heavy consumer
	// allocates its batch working set once.
	par := max(d.opts.Readahead, 1)
	d.readerFree = make(chan *backendReader, par)
	d.batchFree = make(chan []uint64, 2*par+3)
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

// sched is the one span scheduler of every decode path: workers claim
// the tasks of todo in order, each running its task before it claims
// again. Decode's scheduler refills todo a window at a time (next) and
// publishes each span task it hands out on out while still holding mu,
// so Decode receives them in claim order: a claimer blocked on a full
// out holds back the others, which would wait for the same free slot,
// and closing stop releases it.
type sched struct {
	mu   sync.Mutex
	todo []*spanTask
	next func() []*spanTask
	out  chan *spanTask
	stop chan struct{}
	wg   sync.WaitGroup
}

// take claims the next task: nil once there is none or s stopped, so no
// span task is published after a stop dropped one.
func (s *sched) take() *spanTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return nil
	default:
	}
	if len(s.todo) == 0 && s.next != nil {
		if s.todo = s.next(); len(s.todo) == 0 && s.out != nil {
			close(s.out)
		}
	}
	if len(s.todo) == 0 {
		s.next = nil
		return nil
	}
	t := s.todo[0]
	s.todo = s.todo[1:]
	if t.batches != nil {
		select {
		case s.out <- t:
		case <-s.stop:
			return nil
		}
	}
	return t
}

// work runs s's tasks on the calling goroutine until none is left.
func (d *Decompressor) work(s *sched) {
	for t := s.take(); t != nil; t = s.take() {
		d.run(t)
	}
}

// spawn starts n more workers on s; s.wg waits for them.
func (d *Decompressor) spawn(s *sched, n int) {
	for range n {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			d.work(s)
		}()
	}
}

// spanTask decodes span sp from trace position lo to hi into dst, the
// span's part of DecodeAll's or a range window's output; a task of no
// addresses only opens the span, which loads its chunk (group). Decode's
// tasks are batched instead: each batchAddrs addresses go to a recycled
// batch buffer, held until it is sent on batches or, inline (nil
// batches), until Decode takes it. r is the span's reader while open.
type spanTask struct {
	sp      span
	lo, hi  int64
	pin     bool
	dst     []uint64
	batched bool
	batches chan []uint64
	held    []uint64
	r       *spanReader
	done    bool
	err     error
}

// run decodes t from t.lo on, opening the span (openSpan) unless an
// earlier run left it open. A batched task returns early, span open, when
// a stop ends a blocked send, or inline once it holds a batch. A span
// read to its end is checked to end there, as a loaded chunk is
// (readChunkFile). On an error t.dst is left as it was.
func (d *Decompressor) run(t *spanTask) {
	if t.r == nil {
		t.r, t.err = d.openSpan(t.sp, t.lo, t.pin)
	}
	if t.err == nil && !t.batched {
		if dst, err := t.r.appendN(t.dst, t.hi-t.lo); err != nil {
			t.err = err
		} else {
			t.dst, t.lo = dst, t.hi
		}
	}
	for t.batched && t.err == nil && (t.lo < t.hi || t.held != nil) {
		if t.held == nil {
			buf := d.batchBuf()
			b, err := t.r.appendN(buf, min(int64(cap(buf)), t.hi-t.lo))
			if err != nil {
				d.recycleBatch(buf)
				t.err = err
				break
			}
			t.held, t.lo = b, t.lo+int64(len(b))
		}
		if t.batches == nil {
			return
		}
		select {
		case t.batches <- t.held:
			t.held = nil
		case <-d.sched.stop:
			return
		}
	}
	if t.err == nil && t.hi == t.sp.end && t.r.chunk == nil {
		t.err = t.r.end()
	}
	t.r.close() // the legacy v1 reader parks
	t.r, t.done = nil, true
	if t.batches != nil {
		close(t.batches)
	}
}

// startDecode starts Decode's span scheduler at the cursor. With
// Readahead > 1 it hands out the spans a window at a time, a group of up
// to maxDecodeAllPrealloc addresses (or one longer span), loads first and
// then span tasks in trace order. Decode drains those in order while up
// to Readahead workers decode ahead: the worker on the span Decode drains
// never waits for a later one, and at most Readahead claimed spans wait
// for Decode. Inline (Readahead < 0), Decode claims and runs them itself.
func (d *Decompressor) startDecode() {
	from, i := d.cursor, d.spanIndex(d.cursor)
	s := &sched{stop: make(chan struct{})}
	if d.opts.Readahead > 0 {
		// At most Readahead claimed spans wait for Decode.
		s.out = make(chan *spanTask, d.opts.Readahead)
	}
	s.next = func() []*spanTask {
		if i == len(d.index) {
			return nil
		}
		n, todo := 1, []*spanTask(nil)
		if d.opts.Readahead > 1 {
			sp := d.index[i]
			n, todo = d.group(i, max(sp.end, sp.start+maxDecodeAllPrealloc), d.total)
		}
		for _, sp := range d.index[i : i+n] {
			t := &spanTask{sp: sp, lo: max(from, sp.start), hi: sp.end, batched: true}
			if s.out != nil {
				t.batches = make(chan []uint64, 1)
			}
			todo = append(todo, t)
		}
		i += n
		return todo
	}
	d.sched = s
	d.spawn(s, max(d.opts.Readahead, 0))
}

// stopDecode sends the one stop signal of Seek, Close, range windows and
// DecodeAll, and returns the span tasks Decode's scheduler handed out, in
// trace order from the one Decode drains, each with its decoded batches
// and, unless done, its open reader, for takeOver or release.
func (d *Decompressor) stopDecode() []*spanTask {
	if d.sched == nil {
		return nil
	}
	close(d.sched.stop)
	d.sched.wg.Wait()
	var tasks []*spanTask
	if d.cur != nil {
		tasks = append(tasks, d.cur)
	}
	for len(d.sched.out) > 0 {
		tasks = append(tasks, <-d.sched.out)
	}
	d.sched, d.cur = nil, nil
	return tasks
}

// release drops stopped tasks: their batches go back to the free list and
// their readers close, the legacy v1 one parking for a later read.
func (d *Decompressor) release(tasks []*spanTask) {
	for _, t := range tasks {
		for len(t.batches) > 0 {
			d.recycleBatch(<-t.batches)
		}
		d.recycleBatch(t.held)
		t.r.close()
	}
}

// spanReader yields one span's addresses. It is the one way decoded
// addresses leave a span: span tasks (run) and chunk loads into the cache
// (readChunkFile) append them through appendN.
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
// only chunks that imitations replay are: other chunks have one consumer,
// this pass, so they stream into the task's destination unless already
// cached (materializing would cost a span-sized buffer, and caching would
// evict chunks imitations still need). The v1 span always streams.
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
	if int64(len(r.chunk)) != sp.end-sp.start { // not a silently shifted tail
		return nil, fmt.Errorf("%w: chunk %d decodes to %d addresses, index says %d",
			ErrCorrupt, sp.rec.chunkID, len(r.chunk), sp.end-sp.start)
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
// a batch buffer. Only the first span a decode reads skips, and its
// caller waits for it, so no stop can cut the skip short. fill returns
// how many addresses it left in dst (0 once the span is exhausted) and
// ErrCorrupt when the chunk disagrees with the index (checkStream).
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
func (d *Decompressor) Position() int64 { return d.cursor + int64(d.pos) }

// ChunkReads reports how many times a chunk blob has been opened for
// decoding — chunk-cache hits and resumed legacy v1 streams do not count.
// It is safe to call while Decode's span workers run.
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

// SeekTo repositions the decoder so the next Decode returns the address
// at trace position addr, anywhere in [0, TotalAddrs()] (the total makes
// the next Decode return io.EOF). It clears a pending io.EOF and stops
// Decode's span workers, which restart at addr on the next Decode; for
// lossy and segmented traces that costs only the chunk covering addr
// when it is not cached. The legacy v1 stream resumes when addr lies
// ahead of where it stopped and otherwise reopens, decoding and
// discarding up to addr addresses.
func (d *Decompressor) SeekTo(addr int64) error {
	if d.closed {
		return fmt.Errorf("%w: SeekTo", ErrClosed)
	}
	if addr < 0 || addr > d.total {
		return fmt.Errorf("%w: seek to %d outside trace [0, %d]", ErrOutOfRange, addr, d.total)
	}
	d.release(d.stopDecode())
	d.recycleBatch(d.pending)
	d.pending, d.pos = nil, 0
	d.cursor = addr
	d.err = nil
	return nil
}

// DecodeRange decodes the addresses at trace positions [from, to) —
// exactly the slice DecodeAll()[from:to] would hold — decompressing only
// the chunks overlapping the window (every touched chunk is pinned in the
// chunk cache, so repeated ranges over a working set are served from
// memory; a legacy v1 window decodes straight from the stream, resuming
// it when the window lies ahead). A Decode after it continues where it
// left off; Decode's span workers stop and restart lazily.
func (d *Decompressor) DecodeRange(from, to int64) ([]uint64, error) {
	return d.DecodeRangeAppend([]uint64{}, from, to)
}

// DecodeRangeAppend is DecodeRange appending to a caller-provided dst. A
// dst with capacity for the window is never regrown: beyond the chunk
// work, each span the window touches costs a small span reader and task.
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
	d.release(d.stopDecode())
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
// signals a complete, verified end of trace. Unless Readahead < 0, span
// workers started lazily at the current position decode ahead.
func (d *Decompressor) Decode() (uint64, error) {
	if d.pos == len(d.pending) {
		return d.refill()
	}
	v := d.pending[d.pos]
	d.pos++
	return v, nil
}

// refill replaces the drained pending batch with the next one and
// returns its first address, or sets and returns d.err: io.EOF at the
// end of the trace, or the decode error.
func (d *Decompressor) refill() (uint64, error) {
	if d.err != nil {
		return 0, d.err
	}
	d.cursor += int64(len(d.pending))
	d.recycleBatch(d.pending)
	d.pending, d.pos = nil, 0
	batch, err := d.nextBatch()
	if err == nil && batch == nil {
		err = io.EOF // the tasks cover every span up to the trailer's total
	}
	if d.err = err; err != nil {
		return 0, err
	}
	d.pending, d.pos = batch, 1
	return batch[0], nil
}

// nextBatch returns the next batch of the span task Decode drains, sent
// by a worker or, inline, decoded now (run); nil at the end of the trace.
func (d *Decompressor) nextBatch() ([]uint64, error) {
	if d.sched == nil {
		d.startDecode()
	}
	inline := d.sched.out == nil
	for {
		if d.cur == nil {
			if inline {
				d.cur = d.sched.take()
			} else {
				d.cur = <-d.sched.out
			}
			if d.cur == nil {
				return nil, nil
			}
		}
		t, b := d.cur, []uint64(nil)
		if !inline {
			b = <-t.batches
		} else {
			if !t.done {
				d.run(t)
			}
			b, t.held = t.held, nil
		}
		if b != nil {
			return b, nil
		}
		if t.err != nil {
			return nil, t.err
		}
		d.cur = nil
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

// DecodeAll decodes the remaining trace into memory: the rest of the
// pending batch, the spans Decode's stopped workers claimed (takeOver),
// then the rest straight into its output (fill), which grows one group
// of spans at a time (grow). On an error it returns the addresses before
// the failing span, and Decode repeats the error; after a complete
// decode Decode returns io.EOF.
func (d *Decompressor) DecodeAll() ([]uint64, error) {
	if d.err != nil {
		if d.err == io.EOF {
			return []uint64{}, nil
		}
		return nil, d.err
	}
	pos := d.Position()
	out := append([]uint64{}, d.pending[d.pos:]...)
	d.recycleBatch(d.pending)
	d.pending, d.pos = nil, 0
	out, err := d.takeOver(out, d.stopDecode())
	if err == nil {
		from := pos + int64(len(out))
		out, err = d.fill(out, d.spanIndex(from), from, d.total, max(d.opts.Readahead, 1), false)
	}
	d.cursor = pos + int64(len(out))
	if d.err = err; err == nil {
		d.err = io.EOF
	}
	return out, err
}

// takeOver appends the stopped span tasks to out in trace order: the
// batches Decode did not take, then the rest of the span, which run reads
// on from the task's open reader straight into out, so no span is read
// twice. On an error it releases the tasks left and returns out up to the
// failing task's first batch.
func (d *Decompressor) takeOver(out []uint64, tasks []*spanTask) ([]uint64, error) {
	for k, t := range tasks {
		mark := len(out)
		for len(t.batches) > 0 {
			b := <-t.batches
			out = append(out, b...)
			d.recycleBatch(b)
		}
		out = append(out, t.held...)
		d.recycleBatch(t.held)
		t.held = nil
		if !t.done {
			t.batched, t.batches, t.dst = false, nil, out
			d.run(t)
			out = t.dst
		}
		if t.err != nil {
			d.release(tasks[k+1:])
			return out[:mark], t.err
		}
	}
	return out, nil
}

// fill appends the addresses at trace positions [from, to) to out, from
// the span index[i] on; on an error it returns out up to the start of the
// failing span. Before each span that does not fit, out grows (grow,
// bounded by what is left of the window). With par > 1 the spans that
// then fit decode as a group (fillGroup); otherwise the caller runs the
// span's task into out, which grows as the span fills it (appendN).
func (d *Decompressor) fill(out []uint64, i int, from, to int64, par int, pin bool) ([]uint64, error) {
	for i < len(d.index) && d.index[i].start < to {
		sp := d.index[i]
		lo, hi := max(from, sp.start), min(to, sp.end)
		if int64(cap(out)-len(out)) < hi-lo {
			out = grow(out, to-lo)
		}
		n, loads := 1, []*spanTask(nil)
		if par > 1 {
			n, loads = d.group(i, lo+int64(cap(out)-len(out)), to)
		}
		var err error
		if n > 1 {
			out, err = d.fillGroup(out, d.index[i:i+n], loads, lo, to, par)
		} else {
			t := &spanTask{sp: sp, lo: lo, hi: hi, pin: pin, dst: out}
			d.run(t)
			n, out, err = 1, t.dst, t.err
		}
		if err != nil {
			return out, err
		}
		i += n
	}
	return out, nil
}

// group reports how many spans from index[i] on decode together: those
// ending (or cut off by to) at or before the trace position limit, and
// together replaying no more distinct chunks than the chunk cache holds,
// so none is evicted before the group is done with it. It marks those
// already cached recently used and returns a task of no addresses for
// each chunk record of the group whose chunk is replayed but not cached:
// run first, these load the replayed chunks at the same time, and an
// imitation waits only for its own source chunk (GetOrLoad).
func (d *Decompressor) group(i int, limit, to int64) (int, []*spanTask) {
	maxHot := 1
	if stride := int64(d.intervalLen) * 8; stride > 0 {
		maxHot = max(int(d.cache.c.budget/stride), 1)
	}
	var hot []int
	var loads []*spanTask
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
			if !d.cache.touch(sp.rec.chunkID) && sp.rec.tag == recChunk {
				loads = append(loads, &spanTask{sp: sp, lo: sp.start, hi: sp.start})
			}
		}
	}
	return n, loads
}

// fillGroup decodes the spans of group into out's spare capacity, each
// into its own sub-slice, lo being the trace position of out's end (the
// first span may start before it). Up to par workers, the caller one of
// them, run the group's loads and then its spans in trace order. On an
// error the result ends where the first failing span starts.
func (d *Decompressor) fillGroup(out []uint64, group []span, loads []*spanTask, lo, to int64, par int) ([]uint64, error) {
	base := len(out)
	at := func(pos int64) int { return base + int(pos-lo) }
	tasks := make([]*spanTask, 0, len(group))
	for _, sp := range group {
		a, b := max(lo, sp.start), min(to, sp.end)
		tasks = append(tasks, &spanTask{sp: sp, lo: a, hi: b, dst: out[at(a):at(a):at(b)]})
	}
	s := &sched{todo: append(loads, tasks...)}
	d.spawn(s, min(par, len(group))-1)
	d.work(s)
	s.wg.Wait()
	for _, t := range tasks {
		if t.err != nil {
			return out[:at(max(lo, t.sp.start))], t.err
		}
	}
	return out[:at(min(to, group[len(group)-1].end))], nil
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
// cache, pinning a freshly read chunk there (subject to eviction), so
// imitations and a hot range working set decompress it once; concurrent
// readers through a shared cache trigger a single decompression.
// openSpan checks the length: a cached chunk may have been loaded for
// another span.
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

// Close stops Decode's span workers and releases open blobs, plus the
// store itself when Open built it from a path (a caller-provided
// DecodeOptions.Store stays open). The Decompressor cannot be used after.
func (d *Decompressor) Close() error {
	d.release(d.stopDecode())
	d.cursor = d.Position()
	d.recycleBatch(d.pending)
	d.pending, d.pos = nil, 0
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
