package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// RemoteStore opens a single-file .atc archive held behind an HTTP(S) URL
// — an object-storage bucket, a CDN, any server honoring `Range` requests
// (S3-compatible semantics) — without downloading it.
//
// The store is read-only: Create and Remove fail exactly as they do on any
// archive opened for reading. The archive's header, footer and TOC are
// fetched and fully validated at open, one ranged GET each. After that,
// Open(name) returns a blob that streams exactly that blob's TOC extent
// in one ranged GET, so the origin sees one request per chunk read. The
// store keeps no cache of its own: the decode pipeline already opens
// chunks concurrently, and the chunk cache already decodes each chunk
// once. Close is the embedded archive's: no connection state is pinned
// per store, since the HTTP client's idle pool is shared.
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

// Fixed remote fetch policy. A transient failure (HTTP 5xx, a transport
// error, a body cut short) is retried remoteRetries times, after a
// backoff of remoteRetryDelay doubling per attempt. Every delivered byte
// restores a stream's full budget, so a blob stream held open across
// requests survives any number of dropped connections that its resumed
// GETs make progress past.
const (
	remoteRetries    = 2 // 3 attempts in total
	remoteRetryDelay = 100 * time.Millisecond
)

// RemoteOptions tunes OpenRemote. The zero value selects the defaults.
type RemoteOptions struct {
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
		retries:    remoteRetries,
		retryDelay: remoteRetryDelay,
	}
	ast, err := OpenArchiveReaderAt(ra, size)
	if err != nil {
		return nil, err
	}
	ast.path = url
	return &RemoteStore{ArchiveStore: ast, ra: ra}, nil
}

// Open implements Store: the blob streams its TOC extent through one
// ranged GET, issued on the first Read (an empty blob issues none) and
// resumed from the first undelivered byte after a transient failure. A
// full read verifies the payload CRC, as on a local archive.
func (s *RemoteStore) Open(name string) (Blob, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return &archiveBlob{r: s.ra.fetchRange(e.off, e.length), size: e.length, want: e.crc}, nil
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
	// Fetches is the number of ranged GETs issued (including retries and
	// resumes; the open-time probe is not counted).
	Fetches int64
	// BytesFetched is the payload bytes delivered, each byte counted once
	// even when a resumed stream fetched it.
	BytesFetched int64
	// Retries is the number of transient failures retried with backoff.
	Retries int64
}

// RangeReaderAt reads one remote object through ranged GETs pinned to the
// size and ETag captured at open. It caches nothing: ReadAt is one ranged
// GET of exactly the bytes asked for (the archive opener reads the header,
// footer and TOC through it), and fetchRange streams one extent for a
// blob. It is safe for concurrent use.
type RangeReaderAt struct {
	url        string
	client     *http.Client
	size       int64
	etag       string
	retries    int
	retryDelay time.Duration

	fetches      atomic.Int64
	bytesFetched atomic.Int64
	retried      atomic.Int64
}

// Size reports the remote object's length captured at open.
func (r *RangeReaderAt) Size() int64 { return r.size }

// ETag reports the validator captured at open ("" when the server sent
// none; consistency then degrades to size checks).
func (r *RangeReaderAt) ETag() string { return r.etag }

// Stats reports fetch counters.
func (r *RangeReaderAt) Stats() RemoteStats {
	return RemoteStats{
		Fetches:      r.fetches.Load(),
		BytesFetched: r.bytesFetched.Load(),
		Retries:      r.retried.Load(),
	}
}

// ReadAt implements io.ReaderAt: one ranged GET of [off, off+len(p)),
// clipped to the object's end.
func (r *RangeReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative read offset %d", ErrRemote, off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= r.size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), r.size-off)
	rs := r.fetchRange(off, n)
	defer rs.Close()
	if _, err := io.ReadFull(rs, p[:n]); err != nil {
		return 0, err
	}
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// fetchRange returns a stream of the object's bytes [off, off+n). The GET
// is issued on the first Read; after a transient failure the stream
// re-requests only the bytes not yet delivered.
func (r *RangeReaderAt) fetchRange(off, n int64) *rangeStream {
	return &rangeStream{r: r, off: off, end: off + n}
}

// rangeStream is one extent of the remote object read through a single
// ranged GET, resumed from off when a response fails or ends early.
type rangeStream struct {
	r        *RangeReaderAt
	off, end int64 // next byte to deliver; end of the extent
	body     io.ReadCloser
	failures int // transient failures since the last delivered byte
	closed   bool
}

func (s *rangeStream) Read(p []byte) (int, error) {
	if s.closed {
		return 0, fs.ErrClosed
	}
	if s.off >= s.end {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if s.body == nil {
			body, err := s.r.get(s.off, s.end-s.off)
			if err != nil {
				if s.backoff(err) {
					continue
				}
				return 0, err
			}
			s.body = body
		}
		n, err := s.body.Read(p[:min(int64(len(p)), s.end-s.off)])
		if n > 0 {
			s.off += int64(n)
			s.failures = 0
			s.r.bytesFetched.Add(int64(n))
			metRemoteBytes.Add(int64(n))
		}
		switch {
		case s.off == s.end:
			s.closeBody()
			return n, nil
		case err != nil:
			// The response failed or ended before the extent did: drop
			// it, and the next GET resumes from the first undelivered byte.
			s.closeBody()
			err = fmt.Errorf("%w: GET %s: body ended at %d of range ending %d: %v", errTransient, s.r.url, s.off, s.end, err)
			if !s.backoff(err) {
				return n, err
			}
		}
		if n > 0 {
			return n, nil
		}
	}
}

// backoff reports whether a failed attempt should be retried, sleeping
// first; a permanent error or an exhausted budget ends the stream.
func (s *rangeStream) backoff(err error) bool {
	if !errors.Is(err, errTransient) || s.failures >= s.r.retries {
		return false
	}
	s.r.retried.Add(1)
	metRemoteRetries.Inc()
	time.Sleep(s.r.retryDelay << s.failures)
	s.failures++
	return true
}

func (s *rangeStream) closeBody() {
	if s.body != nil {
		s.body.Close()
		s.body = nil
	}
}

// Close releases the response body of a stream stopped early.
func (s *rangeStream) Close() error {
	s.closed = true
	s.closeBody()
	return nil
}

// get issues one ranged GET of [off, off+n) and returns the body of the
// validated response.
func (r *RangeReaderAt) get(off, n int64) (io.ReadCloser, error) {
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
	if err := r.validate(resp, off, n); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp.Body, nil
}

// validate checks a ranged GET's response against the request and the
// identity captured at open: a 206 whose ETag matches and whose
// Content-Range covers exactly [off, off+n) of an object of the open-time
// size. Anything else from the object is ErrCorrupt; 5xx is transient.
func (r *RangeReaderAt) validate(resp *http.Response, off, n int64) error {
	switch {
	case resp.StatusCode == http.StatusPartialContent:
	case resp.StatusCode == http.StatusOK:
		return fmt.Errorf("%w: %s ignored the Range request (an S3-compatible ranged-read server is required)", ErrRemote, r.url)
	case resp.StatusCode == http.StatusPreconditionFailed:
		return fmt.Errorf("%w: remote archive %s changed mid-session (ETag %s no longer matches)", ErrCorrupt, r.url, r.etag)
	case resp.StatusCode == http.StatusRequestedRangeNotSatisfiable:
		return fmt.Errorf("%w: remote archive %s shrank mid-session (range [%d,+%d) unsatisfiable)", ErrCorrupt, r.url, off, n)
	case resp.StatusCode >= 500:
		return fmt.Errorf("%w: GET %s: %s", errTransient, r.url, resp.Status)
	default:
		return fmt.Errorf("%w: GET %s: %s", ErrRemote, r.url, resp.Status)
	}
	if etag := resp.Header.Get("Etag"); etag != "" && r.etag != "" && etag != r.etag {
		return fmt.Errorf("%w: remote archive %s changed mid-session (ETag %s, had %s)", ErrCorrupt, r.url, etag, r.etag)
	}
	gotOff, gotEnd, total, err := parseContentRange(resp.Header.Get("Content-Range"))
	if err != nil {
		return err
	}
	if gotOff != off || gotEnd != off+n-1 || total != r.size {
		return fmt.Errorf("%w: remote archive %s served bytes %d-%d of %d, want %d-%d of %d (object replaced mid-session?)",
			ErrCorrupt, r.url, gotOff, gotEnd, total, off, off+n-1, r.size)
	}
	return nil
}

// parseContentRange parses a "bytes a-b/total" Content-Range header into
// the first and last byte and the object size. The total is required —
// "*" would leave mid-session size validation blind — and the range must
// be ordered and lie inside it.
func parseContentRange(h string) (off, end, total int64, err error) {
	bad := fmt.Errorf("%w: remote response Content-Range %q invalid", ErrCorrupt, h)
	span, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, 0, 0, bad
	}
	rng, totalStr, ok := strings.Cut(span, "/")
	if !ok {
		return 0, 0, 0, bad
	}
	offStr, endStr, ok := strings.Cut(rng, "-")
	if !ok {
		return 0, 0, 0, bad
	}
	off, err1 := strconv.ParseInt(offStr, 10, 64)
	end, err2 := strconv.ParseInt(endStr, 10, 64)
	total, err3 := strconv.ParseInt(totalStr, 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || off < 0 || end < off || end >= total {
		return 0, 0, 0, bad
	}
	return off, end, total, nil
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
	_, _, total, err := parseContentRange(resp.Header.Get("Content-Range"))
	if err != nil {
		return 0, "", err
	}
	return total, resp.Header.Get("Etag"), nil
}
