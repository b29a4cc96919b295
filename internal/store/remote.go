package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteStore opens a single-file .atc archive held behind an HTTP(S) URL
// — an object-storage bucket, a CDN, any server honoring `Range` requests
// (S3-compatible semantics) — without downloading it. All reads go through
// a caching RangeReaderAt: block-aligned ranged GETs, a bounded LRU block
// cache, adjacent-read coalescing and in-flight deduplication, so a
// serving tier in front of object storage touches the origin once per
// block, not once per read.
//
// The store is read-only: Create and Remove fail exactly as they do on any
// archive opened for reading. The archive's TOC is fetched and fully
// validated at open (footer + TOC are one or two ranged GETs), after which
// every blob is served through the shared block cache. Close is the
// embedded archive's: no connection state is pinned per store, since the
// HTTP client's idle pool is shared.
//
// Consistency: the object's size and ETag are captured at open. Every
// later response is checked against them — and an `If-Match` header asks
// the server to enforce it — so an object replaced mid-session surfaces as
// ErrCorrupt instead of a silent splice of old and new bytes.
type RemoteStore struct {
	*ArchiveStore
	ra *RangeReaderAt
}

// ErrRemote reports a failed remote fetch — a transport error or an HTTP
// error status. It does not implicate the stored bytes; corruption and
// mid-session object replacement surface as ErrCorrupt instead.
var ErrRemote = errors.New("atc: remote store fetch failed")

// errTransient marks an ErrRemote worth retrying (5xx, transport hiccups).
// It wraps ErrRemote so callers classifying with errors.Is see one class.
var errTransient = fmt.Errorf("%w (transient)", ErrRemote)

// Remote tuning defaults; see RemoteOptions.
const (
	DefaultRemoteBlockSize   = 256 << 10 // 256 KiB per ranged GET
	DefaultRemoteCacheBlocks = 64        // 16 MiB cached at the default block size
)

// Fixed remote fetch policy. A transient failure (HTTP 5xx or a
// transport error) is retried remoteRetries times, after a backoff of
// remoteRetryDelay doubling per attempt. A read continuing the previous
// read's frontier triggers a background fetch of the blocks after it,
// overlapping origin latency with decompression of the current one;
// sustained sequential reads double the number of blocks speculated
// ahead (1, 2, 4, …, issued as one coalesced ranged GET) up to
// remoteMaxPrefetch, and any non-sequential read or wasted prefetch
// halves it. Prefetched blocks land in the same LRU and are counted hit
// or wasted (evicted untouched) on atc_remote_prefetch_total.
const (
	remoteRetries     = 2 // 3 attempts in total
	remoteRetryDelay  = 100 * time.Millisecond
	remoteMaxPrefetch = 16 // adaptive readahead window cap, in blocks
)

// RemoteOptions tunes OpenRemote. The zero value selects the defaults.
type RemoteOptions struct {
	// BlockSize is the fetch granularity in bytes: every ranged GET is
	// aligned to and sized in whole blocks (the final block of the object
	// may be short). Default DefaultRemoteBlockSize.
	BlockSize int
	// CacheBlocks bounds the LRU block cache, in blocks. Default
	// DefaultRemoteCacheBlocks.
	CacheBlocks int
	// Client overrides the HTTP client (timeouts, proxies, auth
	// round-trippers for private buckets). Default http.DefaultClient.
	Client *http.Client
}

// IsRemoteURL reports whether path names a remote archive — an http(s)
// URL rather than a filesystem path. Open-style entry points use it to
// route a path to OpenRemote.
func IsRemoteURL(path string) bool {
	return strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://")
}

// OpenRemote opens the single-file archive at url for reading. The
// object's size and ETag are probed up front (HEAD, with a one-byte
// ranged-GET fallback for servers that refuse HEAD) and the archive TOC is
// validated exactly as OpenArchive would.
func OpenRemote(url string, opts RemoteOptions) (*RemoteStore, error) {
	if !IsRemoteURL(url) {
		return nil, fmt.Errorf("%w: not an http(s) URL: %q", ErrRemote, url)
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultRemoteBlockSize
	}
	if opts.CacheBlocks <= 0 {
		opts.CacheBlocks = DefaultRemoteCacheBlocks
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	size, etag, err := probeRemote(opts.Client, url, remoteRetries, remoteRetryDelay)
	if err != nil {
		return nil, err
	}
	ra := &RangeReaderAt{
		url:        url,
		client:     opts.Client,
		size:       size,
		etag:       etag,
		blockSize:  int64(opts.BlockSize),
		retries:    remoteRetries,
		retryDelay: remoteRetryDelay,
		cache:      blockLRU{cap: opts.CacheBlocks, m: map[int64]*list.Element{}},
		inflight:   map[int64]*blockFetch{},
	}
	ast, err := OpenArchiveReaderAt(ra, size)
	if err != nil {
		return nil, err
	}
	ast.path = url
	return &RemoteStore{ArchiveStore: ast, ra: ra}, nil
}

// URL reports the archive's remote location.
func (s *RemoteStore) URL() string { return s.ra.url }

// ReaderStats reports the underlying RangeReaderAt's fetch counters.
func (s *RemoteStore) ReaderStats() RemoteStats { return s.ra.Stats() }

// RemoteSize probes the size of a remote object without opening it as an
// archive — one HEAD (or one-byte ranged GET). It backs StoreSize-style
// metrics for http(s) trace paths.
func RemoteSize(url string) (int64, error) {
	if !IsRemoteURL(url) {
		return 0, fmt.Errorf("%w: not an http(s) URL: %q", ErrRemote, url)
	}
	size, _, err := probeRemote(http.DefaultClient, url, remoteRetries, remoteRetryDelay)
	return size, err
}

// RemoteStats counts a RangeReaderAt's traffic.
type RemoteStats struct {
	// Fetches is the number of HTTP requests issued (including retries
	// and the open-time probe's ranged fallback, excluding HEAD).
	Fetches int64
	// BytesFetched is the payload bytes successfully fetched.
	BytesFetched int64
	// BlockHits is the number of block lookups served from the cache.
	BlockHits int64
	// Retries is the number of transient failures retried with backoff.
	Retries int64
	// Prefetches is the number of background block fetches launched by
	// the sequential-readahead heuristic.
	Prefetches int64
	// PrefetchHits is the number of prefetched blocks a later read used
	// (from the cache, or deduplicated onto the fetch in flight).
	PrefetchHits int64
	// PrefetchWasted is the number of prefetched blocks evicted without
	// ever being read.
	PrefetchWasted int64
	// PrefetchDepth is the current adaptive readahead window, in blocks:
	// doubled (up to the configured cap) on each sustained sequential
	// read, halved on a non-sequential read or a wasted prefetch.
	PrefetchDepth int64
}

// RangeReaderAt is a caching io.ReaderAt over one remote object. Reads are
// decomposed into aligned blocks; missing adjacent blocks coalesce into a
// single ranged GET, concurrent fetches of one block deduplicate onto a
// single request, and fetched blocks land in a bounded LRU. It is safe for
// concurrent use — the access pattern of the archive decoder's readahead
// fan-out.
type RangeReaderAt struct {
	url        string
	client     *http.Client
	size       int64
	etag       string
	blockSize  int64
	retries    int
	retryDelay time.Duration
	// noPrefetch turns readahead off; demand-fetch tests that count exact
	// GETs set it.
	noPrefetch bool
	// maxPrefetch caps the adaptive readahead window in blocks (0 means
	// remoteMaxPrefetch); tests set it to pin a fixed depth.
	maxPrefetch int64

	mu       sync.Mutex
	cache    blockLRU
	inflight map[int64]*blockFetch
	// prevLast is the last block the previous ReadAt touched (valid once
	// hasRead is set): a read starting at or adjacent to that frontier
	// AND advancing past it is "sequential" and prefetches the blocks
	// after its own end. Requiring progress keeps repeated reads inside
	// one block (a bufio draining it) from re-triggering speculation.
	prevLast int64
	hasRead  bool
	// prefDepth is the adaptive readahead window in blocks (0 reads as
	// 1): each sequential read speculates prefDepth blocks ahead and
	// doubles it up to maxPrefetch; a non-sequential read or a wasted
	// prefetch halves it, so the window tracks how committed the consumer
	// actually is to the sequential pattern. Guarded by mu.
	prefDepth int64

	fetches        atomic.Int64
	bytesFetched   atomic.Int64
	blockHits      atomic.Int64
	retried        atomic.Int64
	prefetches     atomic.Int64
	prefetchHits   atomic.Int64
	prefetchWasted atomic.Int64
}

// blockFetch is one in-flight block: done closes once data/err are set, so
// readers needing a block another goroutine is already fetching wait here
// instead of issuing a duplicate request.
type blockFetch struct {
	done chan struct{}
	data []byte
	err  error
	// prefetch marks a speculative background fetch. The first reader to
	// dedupe onto it (or hit the cached result) clears the flag and
	// counts a prefetch hit; eviction with the flag still set counts it
	// wasted. Mutated only under RangeReaderAt.mu.
	prefetch bool
}

// Size reports the remote object's length captured at open.
func (r *RangeReaderAt) Size() int64 { return r.size }

// ETag reports the validator captured at open ("" when the server sent
// none; consistency then degrades to size checks).
func (r *RangeReaderAt) ETag() string { return r.etag }

// depthLocked resolves the current readahead window; callers hold mu.
func (r *RangeReaderAt) depthLocked() int64 {
	if r.prefDepth < 1 {
		return 1
	}
	return r.prefDepth
}

// maxDepth resolves the configured window cap (immutable after open).
func (r *RangeReaderAt) maxDepth() int64 {
	if r.maxPrefetch > 0 {
		return r.maxPrefetch
	}
	return remoteMaxPrefetch
}

// Stats reports fetch counters.
func (r *RangeReaderAt) Stats() RemoteStats {
	r.mu.Lock()
	depth := r.depthLocked()
	r.mu.Unlock()
	return RemoteStats{
		PrefetchDepth:  depth,
		Fetches:        r.fetches.Load(),
		BytesFetched:   r.bytesFetched.Load(),
		BlockHits:      r.blockHits.Load(),
		Retries:        r.retried.Load(),
		Prefetches:     r.prefetches.Load(),
		PrefetchHits:   r.prefetchHits.Load(),
		PrefetchWasted: r.prefetchWasted.Load(),
	}
}

// ReadAt implements io.ReaderAt over the block cache.
func (r *RangeReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative read offset %d", ErrRemote, off)
	}
	if off >= r.size {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	short := false
	if off+int64(len(p)) > r.size {
		p = p[:r.size-off]
		short = true
	}
	if len(p) == 0 {
		return 0, nil
	}
	first := off / r.blockSize
	last := (off + int64(len(p)) - 1) / r.blockSize
	// blocks gathers each needed block's payload; cache references are
	// taken under the lock and stay valid after eviction (payloads are
	// immutable once fetched).
	blocks := make([][]byte, last-first+1)
	type waiter struct {
		i int
		f *blockFetch
	}
	var waits []waiter   // blocks another reader is fetching
	var claimed []waiter // blocks this call fetches
	var runs [][2]int64  // inclusive block ranges this call claimed to fetch
	r.mu.Lock()
	sequential := r.hasRead && first <= r.prevLast+1 && last > r.prevLast
	// Adapt the readahead window to how committed the consumer is to the
	// sequential pattern: sustained sequential reads double it (capped),
	// any departure halves it.
	var depth int64
	if sequential {
		depth = r.depthLocked()
		if next := depth * 2; next <= r.maxDepth() {
			r.prefDepth = next
		} else {
			r.prefDepth = r.maxDepth()
		}
	} else if r.hasRead {
		r.prefDepth = r.depthLocked() / 2
	}
	r.prevLast = last
	r.hasRead = true
	for b := first; b <= last; b++ {
		i := int(b - first)
		if data, pref, ok := r.cache.get(b); ok {
			r.blockHits.Add(1)
			metRemoteBlockHits.Inc()
			if pref {
				r.prefetchHits.Add(1)
				metRemotePrefetchHit.Inc()
			}
			blocks[i] = data
			continue
		}
		if f, ok := r.inflight[b]; ok {
			if f.prefetch {
				f.prefetch = false
				r.prefetchHits.Add(1)
				metRemotePrefetchHit.Inc()
			}
			waits = append(waits, waiter{i, f})
			continue
		}
		// Claim this block and every adjacent unclaimed miss up to the
		// read's end: the run is served by one coalesced ranged GET.
		start := b
		for {
			f := &blockFetch{done: make(chan struct{})}
			r.inflight[b] = f
			claimed = append(claimed, waiter{int(b - first), f})
			if b == last {
				break
			}
			if _, cached := r.cache.m[b+1]; cached {
				break
			}
			if _, busy := r.inflight[b+1]; busy {
				break
			}
			b++
		}
		runs = append(runs, [2]int64{start, b})
	}
	r.mu.Unlock()
	if sequential {
		r.maybePrefetch(last+1, depth)
	}
	for _, run := range runs {
		metRemoteRunBlocks.Observe(float64(run[1] - run[0] + 1))
	}
	// Fetch the claimed runs. Every claimed block must be resolved even
	// after a failure — other readers may be parked on its done channel —
	// so later runs are failed explicitly rather than skipped.
	var fetchErr error
	for _, run := range runs {
		if fetchErr != nil {
			r.failRun(run[0], run[1], fetchErr)
			continue
		}
		fetchErr = r.fetchRun(run[0], run[1])
	}
	if fetchErr != nil {
		return 0, fetchErr
	}
	for _, w := range claimed {
		blocks[w.i] = w.f.data
	}
	for _, w := range waits {
		<-w.f.done
		if w.f.err != nil {
			return 0, w.f.err
		}
		r.blockHits.Add(1) // deduplicated onto another reader's fetch
		metRemoteBlockHits.Inc()
		blocks[w.i] = w.f.data
	}
	// Assemble the caller's window from the gathered blocks.
	n := 0
	for i, data := range blocks {
		blockOff := (first + int64(i)) * r.blockSize
		lo := int64(0)
		if off > blockOff {
			lo = off - blockOff
		}
		hi := int64(len(data))
		if end := off + int64(len(p)) - blockOff; end < hi {
			hi = end
		}
		if lo > hi {
			lo = hi
		}
		n += copy(p[n:], data[lo:hi])
	}
	if n != len(p) {
		return n, fmt.Errorf("%w: remote read at %d assembled %d of %d bytes", ErrCorrupt, off, n, len(p))
	}
	if short {
		return n, io.EOF
	}
	return n, nil
}

// maybePrefetch launches a background fetch of up to depth blocks
// starting at b after a sequential read, so the next ReadAts find them
// cached (or dedupe onto the fetch in flight) instead of paying a full
// origin round trip per block. The first contiguous run of missing
// blocks inside the window is claimed and fetched as one coalesced
// ranged GET; already-cached, already-in-flight and past-EOF blocks are
// skipped. A failed prefetch is discarded silently — the demand fetch
// that would have needed it retries from scratch with full error
// reporting.
func (r *RangeReaderAt) maybePrefetch(b, depth int64) {
	if r.noPrefetch || b*r.blockSize >= r.size {
		return
	}
	nblocks := (r.size + r.blockSize - 1) / r.blockSize
	end := b + depth
	if end > nblocks {
		end = nblocks
	}
	var start, stop int64 = -1, -1
	r.mu.Lock()
	for blk := b; blk < end; blk++ {
		_, cached := r.cache.m[blk]
		_, busy := r.inflight[blk]
		if cached || busy {
			if start >= 0 {
				break // one contiguous run per GET; stop at the first gap
			}
			continue
		}
		if start < 0 {
			start = blk
		}
		stop = blk
	}
	// Hysteresis: top up only once at least half the window has drained.
	// Without it a consumer keeping pace with the readahead would extend
	// the frontier by one block per read — a 1-block GET per read, the
	// request rate adaptivity exists to avoid. With it, steady state is
	// one half-window coalesced GET per half-window consumed.
	if start < 0 || (stop-start+1)*2 < depth {
		r.mu.Unlock()
		return
	}
	for blk := start; blk <= stop; blk++ {
		r.inflight[blk] = &blockFetch{done: make(chan struct{}), prefetch: true}
	}
	r.mu.Unlock()
	r.prefetches.Add(stop - start + 1)
	metRemotePrefetchDepth.Observe(float64(stop - start + 1))
	go r.fetchRun(start, stop)
}

// noteWasted tallies prefetched blocks evicted before any read used them
// and halves the adaptive window — speculation outran the consumer.
// Always called with mu held.
func (r *RangeReaderAt) noteWasted(n int) {
	if n > 0 {
		r.prefetchWasted.Add(int64(n))
		metRemotePrefetchWasted.Add(int64(n))
		r.prefDepth = r.depthLocked() / 2
	}
}

// fetchRun fetches the claimed blocks [start, end] in one ranged GET —
// for a demand read or a background prefetch alike — and resolves their
// in-flight registrations: each block takes its data and enters the LRU,
// or takes the error, and its waiters are released. A prefetched block
// that a reader deduped onto has already had its prefetch flag cleared
// (and taken the hit); only a still-speculative block enters the cache
// flagged.
func (r *RangeReaderAt) fetchRun(start, end int64) error {
	off := start * r.blockSize
	data, err := r.fetchRange(off, min((end+1)*r.blockSize, r.size)-off)
	r.mu.Lock()
	defer r.mu.Unlock()
	for b := start; b <= end; b++ {
		f := r.inflight[b]
		delete(r.inflight, b)
		if err != nil {
			f.err = err
		} else {
			lo := (b - start) * r.blockSize
			f.data = data[lo:min(lo+r.blockSize, int64(len(data)))]
			r.noteWasted(r.cache.put(b, f.data, f.prefetch))
		}
		close(f.done)
	}
	return err
}

// failRun resolves claimed-but-unfetched blocks with err so waiters on
// them never hang after an earlier run in the same ReadAt failed.
func (r *RangeReaderAt) failRun(start, end int64, err error) {
	r.mu.Lock()
	for b := start; b <= end; b++ {
		f := r.inflight[b]
		delete(r.inflight, b)
		f.err = err
		close(f.done)
	}
	r.mu.Unlock()
}

// fetchRange GETs the byte range [off, off+n), retrying transient failures
// (5xx, transport errors) with doubling backoff. Validation failures — a
// changed ETag, an inconsistent total size, a server ignoring Range — are
// permanent and surface immediately.
func (r *RangeReaderAt) fetchRange(off, n int64) ([]byte, error) {
	delay := r.retryDelay
	for attempt := 0; ; attempt++ {
		data, err := r.fetchOnce(off, n)
		if err == nil || !errors.Is(err, errTransient) || attempt >= r.retries {
			return data, err
		}
		r.retried.Add(1)
		metRemoteRetries.Inc()
		time.Sleep(delay)
		delay *= 2
	}
}

// fetchOnce issues one ranged GET and validates the response against the
// identity captured at open.
func (r *RangeReaderAt) fetchOnce(off, n int64) ([]byte, error) {
	start := time.Now()
	defer func() { metRemoteFetchSec.ObserveDuration(time.Since(start)) }()
	req, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	if r.etag != "" {
		// Ask the server to enforce the open-time identity: S3 (and
		// net/http's ServeContent) answer 412 when the object changed.
		req.Header.Set("If-Match", r.etag)
	}
	r.fetches.Add(1)
	metRemoteFetches.Inc()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: GET %s: %v", errTransient, r.url, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusPartialContent:
	case resp.StatusCode == http.StatusOK:
		return nil, fmt.Errorf("%w: %s ignored the Range request (an S3-compatible ranged-read server is required)", ErrRemote, r.url)
	case resp.StatusCode == http.StatusPreconditionFailed:
		return nil, fmt.Errorf("%w: remote archive %s changed mid-session (ETag %s no longer matches)", ErrCorrupt, r.url, r.etag)
	case resp.StatusCode == http.StatusRequestedRangeNotSatisfiable:
		return nil, fmt.Errorf("%w: remote archive %s shrank mid-session (range [%d,+%d) unsatisfiable)", ErrCorrupt, r.url, off, n)
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("%w: GET %s: %s", errTransient, r.url, resp.Status)
	default:
		return nil, fmt.Errorf("%w: GET %s: %s", ErrRemote, r.url, resp.Status)
	}
	if etag := resp.Header.Get("Etag"); etag != "" && r.etag != "" && etag != r.etag {
		return nil, fmt.Errorf("%w: remote archive %s changed mid-session (ETag %s, had %s)", ErrCorrupt, r.url, etag, r.etag)
	}
	gotOff, total, err := parseContentRange(resp.Header.Get("Content-Range"))
	if err != nil {
		return nil, err
	}
	if gotOff != off || total != r.size {
		return nil, fmt.Errorf("%w: remote archive %s served range at %d of %d bytes, want %d of %d (object replaced mid-session?)",
			ErrCorrupt, r.url, gotOff, total, off, r.size)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, fmt.Errorf("%w: GET %s: short body: %v", errTransient, r.url, err)
	}
	r.bytesFetched.Add(n)
	metRemoteBytes.Add(n)
	return data, nil
}

// parseContentRange parses a "bytes a-b/total" Content-Range header. The
// total is required — "*" would leave mid-session size validation blind.
func parseContentRange(h string) (off, total int64, err error) {
	span, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, 0, fmt.Errorf("%w: remote response Content-Range %q unparseable", ErrCorrupt, h)
	}
	rng, totalStr, ok := strings.Cut(span, "/")
	if !ok {
		return 0, 0, fmt.Errorf("%w: remote response Content-Range %q unparseable", ErrCorrupt, h)
	}
	offStr, _, ok := strings.Cut(rng, "-")
	if !ok {
		return 0, 0, fmt.Errorf("%w: remote response Content-Range %q unparseable", ErrCorrupt, h)
	}
	off, err = strconv.ParseInt(offStr, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: remote response Content-Range %q unparseable", ErrCorrupt, h)
	}
	total, err = strconv.ParseInt(totalStr, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: remote response Content-Range total %q unparseable", ErrCorrupt, totalStr)
	}
	return off, total, nil
}

// probeRemote learns the object's size and ETag: HEAD when the server
// supports it, else a one-byte ranged GET whose Content-Range carries the
// total. Transient failures retry like data fetches.
func probeRemote(client *http.Client, url string, retries int, delay time.Duration) (int64, string, error) {
	for attempt := 0; ; attempt++ {
		size, etag, err := probeOnce(client, url)
		if err == nil || !errors.Is(err, errTransient) || attempt >= retries {
			return size, etag, err
		}
		time.Sleep(delay)
		delay *= 2
	}
}

func probeOnce(client *http.Client, url string) (int64, string, error) {
	if resp, err := client.Head(url); err == nil {
		etag := resp.Header.Get("Etag")
		size := resp.ContentLength
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && size >= 0:
			return size, etag, nil
		case resp.StatusCode >= 500:
			return 0, "", fmt.Errorf("%w: HEAD %s: %s", errTransient, url, resp.Status)
		}
		// HEAD refused or size-less: fall through to the ranged probe.
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req.Header.Set("Range", "bytes=0-0")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", fmt.Errorf("%w: GET %s: %v", errTransient, url, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusPartialContent:
	case resp.StatusCode >= 500:
		return 0, "", fmt.Errorf("%w: GET %s: %s", errTransient, url, resp.Status)
	case resp.StatusCode == http.StatusOK:
		return 0, "", fmt.Errorf("%w: %s does not support Range requests (an S3-compatible ranged-read server is required)", ErrRemote, url)
	default:
		return 0, "", fmt.Errorf("%w: GET %s: %s", ErrRemote, url, resp.Status)
	}
	_, total, err := parseContentRange(resp.Header.Get("Content-Range"))
	if err != nil {
		return 0, "", err
	}
	return total, resp.Header.Get("Etag"), nil
}

// blockLRU is the bounded block cache; all access is under RangeReaderAt.mu.
type blockLRU struct {
	cap int
	ll  list.List
	m   map[int64]*list.Element
}

type lruBlock struct {
	id   int64
	data []byte
	// prefetched marks a speculative block no read has used yet; see
	// blockFetch.prefetch for the hit/wasted accounting protocol.
	prefetched bool
}

// get returns a cached block and marks it most recently used. The second
// result reports (and clears) the block's untouched-prefetch flag.
//
//atc:hotpath
func (c *blockLRU) get(id int64) ([]byte, bool, bool) {
	e, ok := c.m[id]
	if !ok {
		return nil, false, false
	}
	c.ll.MoveToFront(e)
	blk := e.Value.(*lruBlock)
	pref := blk.prefetched
	blk.prefetched = false
	return blk.data, pref, true
}

// put inserts a block, evicting from the least recently used end. It
// returns the number of evicted blocks whose prefetched flag was never
// cleared — speculative fetches that turned out wasted.
func (c *blockLRU) put(id int64, data []byte, prefetched bool) (wasted int) {
	if e, ok := c.m[id]; ok {
		c.ll.MoveToFront(e)
		blk := e.Value.(*lruBlock)
		blk.data = data
		blk.prefetched = blk.prefetched && prefetched
		return 0
	}
	c.m[id] = c.ll.PushFront(&lruBlock{id: id, data: data, prefetched: prefetched})
	for len(c.m) > c.cap {
		e := c.ll.Back()
		blk := e.Value.(*lruBlock)
		if blk.prefetched {
			wasted++
		}
		delete(c.m, blk.id)
		c.ll.Remove(e)
	}
	return wasted
}
