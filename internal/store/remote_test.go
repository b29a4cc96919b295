package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rangeHost serves one in-memory object with manually implemented single-
// range semantics, instrumented for the tests: request/range capture, an
// injectable run of 503s, a connection dropped partway through a body,
// clipped ranges, and mutable payload/ETag (to prove mid-session change
// detection).
type rangeHost struct {
	mu       sync.Mutex
	data     []byte
	etag     string
	noHead   bool
	failures int // next N data GETs answer 503
	// dropAfter, when > 0, makes the next data GET send that many body
	// bytes and then drop the connection.
	dropAfter int
	// maxSpan, when > 0, clips every served range to that many bytes
	// (with an honest Content-Range).
	maxSpan int64

	requests atomic.Int64 // data GETs served (not HEAD)
	ranges   []string     // Range headers seen on data GETs
}

func (h *rangeHost) set(data []byte, etag string) {
	h.mu.Lock()
	h.data = data
	h.etag = etag
	h.mu.Unlock()
}

func (h *rangeHost) seenRanges() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.ranges...)
}

func (h *rangeHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	data, etag := h.data, h.etag
	h.mu.Unlock()
	if r.Method == http.MethodHead {
		if h.noHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		if etag != "" {
			w.Header().Set("Etag", etag)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		return
	}
	h.mu.Lock()
	h.requests.Add(1)
	h.ranges = append(h.ranges, r.Header.Get("Range"))
	fail := h.failures > 0
	if fail {
		h.failures--
	}
	drop := h.dropAfter
	h.dropAfter = 0
	maxSpan := h.maxSpan
	h.mu.Unlock()
	if fail {
		http.Error(w, "injected", http.StatusServiceUnavailable)
		return
	}
	if im := r.Header.Get("If-Match"); im != "" && etag != "" && im != etag {
		w.WriteHeader(http.StatusPreconditionFailed)
		return
	}
	rng := r.Header.Get("Range")
	if rng == "" {
		if etag != "" {
			w.Header().Set("Etag", etag)
		}
		w.Write(data)
		return
	}
	span, ok := strings.CutPrefix(rng, "bytes=")
	if !ok {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	loStr, hiStr, _ := strings.Cut(span, "-")
	lo, _ := strconv.ParseInt(loStr, 10, 64)
	hi, _ := strconv.ParseInt(hiStr, 10, 64)
	if lo >= int64(len(data)) {
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if hi >= int64(len(data)) {
		hi = int64(len(data)) - 1
	}
	if maxSpan > 0 && hi-lo+1 > maxSpan {
		hi = lo + maxSpan - 1
	}
	if etag != "" {
		w.Header().Set("Etag", etag)
	}
	w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", lo, hi, len(data)))
	w.Header().Set("Content-Length", strconv.FormatInt(hi-lo+1, 10))
	w.WriteHeader(http.StatusPartialContent)
	if drop > 0 && int64(drop) < hi-lo+1 {
		w.Write(data[lo : lo+int64(drop)])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // closes the connection mid-body
	}
	w.Write(data[lo : hi+1])
}

func testObject(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return data
}

func newRemoteReader(t *testing.T, h *rangeHost, retries int) (*RangeReaderAt, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	h.mu.Lock()
	size, etag := int64(len(h.data)), h.etag
	h.mu.Unlock()
	return &RangeReaderAt{
		url:        srv.URL,
		client:     srv.Client(),
		size:       size,
		etag:       etag,
		retries:    retries,
		retryDelay: time.Millisecond,
	}, srv
}

func TestRangeReaderAtBasic(t *testing.T) {
	data := testObject(10_000)
	h := &rangeHost{data: data, etag: `"v1"`}
	ra, _ := newRemoteReader(t, h, 0)

	got := make([]byte, 3000)
	if n, err := ra.ReadAt(got, 500); err != nil || n != 3000 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data[500:3500]) {
		t.Fatal("ReadAt bytes diverge")
	}
	// One GET of exactly the bytes asked for.
	if n := h.requests.Load(); n != 1 {
		t.Fatalf("requests = %d, want 1", n)
	}
	if rngs := h.seenRanges(); len(rngs) != 1 || rngs[0] != "bytes=500-3499" {
		t.Fatalf("ranges = %v, want [bytes=500-3499]", rngs)
	}
	// Same window again: the reader caches nothing, so one more GET.
	if _, err := ra.ReadAt(got, 500); err != nil {
		t.Fatal(err)
	}
	if n := h.requests.Load(); n != 2 {
		t.Fatalf("requests after re-read = %d, want 2", n)
	}
	// Tail read past EOF returns the short count with io.EOF.
	tail := make([]byte, 100)
	n, err := ra.ReadAt(tail, int64(len(data))-40)
	if n != 40 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v, want 40, EOF", n, err)
	}
	if !bytes.Equal(tail[:40], data[len(data)-40:]) {
		t.Fatal("tail bytes diverge")
	}
	if _, err := ra.ReadAt(tail, int64(len(data))); err != io.EOF {
		t.Fatalf("ReadAt at EOF err = %v, want EOF", err)
	}
	if _, err := ra.ReadAt(tail, -1); !errors.Is(err, ErrRemote) {
		t.Fatalf("negative offset err = %v, want ErrRemote", err)
	}
}

func TestRangeReaderAtRetry(t *testing.T) {
	data := testObject(4096)
	h := &rangeHost{data: data, failures: 2}
	ra, _ := newRemoteReader(t, h, 2)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt with 2 injected 503s and 2 retries: %v", err)
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Fatal("bytes diverge after retries")
	}
	if n := h.requests.Load(); n != 3 {
		t.Fatalf("requests = %d, want 3 (two 503s then success)", n)
	}
	// With retries exhausted the error is ErrRemote and non-nil.
	h.mu.Lock()
	h.failures = 5
	h.mu.Unlock()
	if _, err := ra.ReadAt(buf, 2048); !errors.Is(err, ErrRemote) {
		t.Fatalf("exhausted retries err = %v, want ErrRemote", err)
	}
}

func TestRangeReaderAtETagChange(t *testing.T) {
	data := testObject(8192)
	h := &rangeHost{data: data, etag: `"v1"`}
	ra, _ := newRemoteReader(t, h, 0)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The object is replaced mid-session: the next uncached read must fail
	// as ErrCorrupt (the server rejects If-Match with 412).
	h.set(testObject(8192), `"v2"`)
	if _, err := ra.ReadAt(buf, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ETag change err = %v, want ErrCorrupt", err)
	}
}

func TestRangeReaderAtSizeChange(t *testing.T) {
	// No ETag: consistency degrades to Content-Range total validation, so
	// a replaced (resized) object still fails as ErrCorrupt.
	data := testObject(8192)
	h := &rangeHost{data: data}
	ra, _ := newRemoteReader(t, h, 0)

	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	h.set(testObject(4000), "")
	if _, err := ra.ReadAt(buf, 2048); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size change err = %v, want ErrCorrupt", err)
	}
}

// readBlob fetches a blob's full contents through a store's Open path.
func readBlob(t *testing.T, s Store, name string) []byte {
	t.Helper()
	b, err := s.Open(name)
	if err != nil {
		t.Fatalf("Open %s: %v", name, err)
	}
	defer b.Close()
	data, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func TestOpenRemoteArchive(t *testing.T) {
	// End to end over a real archive: OpenRemote must list and read blobs
	// byte-identically to the local archive.
	blobs := map[string][]byte{
		"MANIFEST":    []byte("mode=lossless\n"),
		"INFO.bytes":  testObject(100),
		"0.lossless":  testObject(70_000),
		"1.lossless":  testObject(33_333),
		"10.lossless": testObject(5),
	}
	raw := writeTestArchive(t, blobs)
	local, err := openBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	var mu sync.Mutex
	var ranges []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			mu.Lock()
			ranges = append(ranges, r.Header.Get("Range"))
			mu.Unlock()
		}
		// http.ServeContent implements Range with no ETag (like a bare
		// static server): the reader must cope without a validator.
		http.ServeContent(w, r, "t.atc", time.Time{}, bytes.NewReader(raw))
	}))
	defer srv.Close()

	rs, err := OpenRemote(srv.URL, RemoteOptions{Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	opened := rs.ReaderStats()
	mu.Lock()
	ranges = nil
	mu.Unlock()
	names, err := rs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("List = %v", names)
	}
	var wantRanges []string
	var payload int64
	for _, name := range names {
		want := readBlob(t, local, name)
		got := readBlob(t, rs, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("blob %s diverges: %d vs %d bytes", name, len(got), len(want))
		}
		e, err := rs.entry(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.length > 0 {
			wantRanges = append(wantRanges, fmt.Sprintf("bytes=%d-%d", e.off, e.off+e.length-1))
		}
		payload += e.length
	}
	// Each non-empty blob read is exactly one ranged GET of its TOC extent.
	st := rs.ReaderStats()
	if st.Fetches != opened.Fetches+int64(len(wantRanges)) || st.BytesFetched != opened.BytesFetched+payload {
		t.Fatalf("stats after reading every blob = %+v, want %d fetches and %d bytes on top of the open's %+v",
			st, len(wantRanges), payload, opened)
	}
	mu.Lock()
	gotRanges := append([]string(nil), ranges...)
	mu.Unlock()
	sort.Strings(gotRanges)
	sort.Strings(wantRanges)
	if strings.Join(gotRanges, " ") != strings.Join(wantRanges, " ") {
		t.Fatalf("data GET ranges = %v, want the TOC extents %v", gotRanges, wantRanges)
	}
	// Writes must be refused: this store is read-only by construction.
	if _, err := rs.Create("new"); err == nil {
		t.Fatal("Create on a RemoteStore succeeded")
	}
	if err := rs.Remove("MANIFEST"); err == nil {
		t.Fatal("Remove on a RemoteStore succeeded")
	}
	if rs.URL() != srv.URL {
		t.Fatalf("URL = %q", rs.URL())
	}
	if st := rs.ReaderStats(); st.Fetches == 0 || st.BytesFetched == 0 {
		t.Fatalf("stats = %+v, want nonzero traffic", st)
	}
}

// openRemoteHost packs blobs into an archive served by a rangeHost.
func openRemoteHost(t *testing.T, blobs map[string][]byte) (*RemoteStore, *rangeHost) {
	t.Helper()
	h := &rangeHost{}
	h.set(writeTestArchive(t, blobs), `"v1"`)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	rs, err := OpenRemote(srv.URL, RemoteOptions{Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	rs.ra.retryDelay = time.Millisecond
	t.Cleanup(func() { rs.Close() })
	return rs, h
}

func TestRemoteBlobResumesAfterDrop(t *testing.T) {
	// The host drops the connection halfway through the blob's body: the
	// stream re-requests only the undelivered bytes, once.
	blob := testObject(100_000)
	rs, h := openRemoteHost(t, map[string][]byte{"MANIFEST": []byte("m"), "1.bsc": blob})
	e, err := rs.entry("1.bsc")
	if err != nil {
		t.Fatal(err)
	}
	before := len(h.seenRanges())
	h.mu.Lock()
	h.dropAfter = 50_000
	h.mu.Unlock()
	if got := readBlob(t, rs, "1.bsc"); !bytes.Equal(got, blob) {
		t.Fatalf("resumed read diverges: %d of %d bytes", len(got), len(blob))
	}
	if st := rs.ReaderStats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	want := []string{
		fmt.Sprintf("bytes=%d-%d", e.off, e.off+e.length-1),
		fmt.Sprintf("bytes=%d-%d", e.off+50_000, e.off+e.length-1),
	}
	if got := h.seenRanges()[before:]; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ranges = %v, want %v", got, want)
	}
}

func TestRemoteBlobEmptyAndClippedExtents(t *testing.T) {
	rs, h := openRemoteHost(t, map[string][]byte{"MANIFEST": []byte("m"), "EMPTY": nil, "1.bsc": testObject(1000)})
	// A zero-length blob issues no GET: bytes=a-(a-1) is not a range.
	before := h.requests.Load()
	if got := readBlob(t, rs, "EMPTY"); len(got) != 0 {
		t.Fatalf("empty blob read %d bytes", len(got))
	}
	if n := h.requests.Load(); n != before {
		t.Fatalf("empty blob issued %d GETs", n-before)
	}
	// A response covering less than the extent is ErrCorrupt, not retried.
	h.mu.Lock()
	h.maxSpan = 10
	h.mu.Unlock()
	b, err := rs.Open("1.bsc")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := io.ReadAll(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("clipped extent err = %v, want ErrCorrupt", err)
	}
	if st := rs.ReaderStats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}

// closeCountingTransport counts response bodies closed by their reader.
type closeCountingTransport struct {
	http.RoundTripper
	closed atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	closed *atomic.Int64
}

func (b countingBody) Close() error {
	b.closed.Add(1)
	return b.ReadCloser.Close()
}

func (t *closeCountingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.closed}
	}
	return resp, err
}

func TestRemoteBlobCloseReleasesBody(t *testing.T) {
	// A blob closed halfway releases its response: the connection and the
	// goroutines serving it go away.
	blob := testObject(8 << 20)
	h := &rangeHost{}
	h.set(writeTestArchive(t, map[string][]byte{"MANIFEST": []byte("m"), "1.bsc": blob}), `"v1"`)
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := &closeCountingTransport{RoundTripper: &http.Transport{}}
	client := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	rs, err := OpenRemote(srv.URL, RemoteOptions{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	b, err := rs.Open("1.bsc")
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, len(blob)/2)
	if _, err := io.ReadFull(b, half); err != nil {
		t.Fatal(err)
	}
	closedBefore := tr.closed.Load()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tr.closed.Load() - closedBefore; n != 1 {
		t.Fatalf("Close released %d response bodies, want 1", n)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := b.Read(half); err == nil {
		t.Fatal("Read after Close succeeded")
	}
}

func TestOpenRemoteProbeFallback(t *testing.T) {
	// A server refusing HEAD must still open via the ranged-GET probe.
	raw := writeTestArchive(t, map[string][]byte{
		"MANIFEST":   []byte("mode=lossless\n"),
		"0.lossless": testObject(10_000),
	})
	h := &rangeHost{noHead: true}
	h.set(raw, `"v1"`)
	srv := httptest.NewServer(h)
	defer srv.Close()

	rs, err := OpenRemote(srv.URL, RemoteOptions{Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := readBlob(t, rs, "0.lossless"); !bytes.Equal(got, testObject(10_000)) {
		t.Fatal("blob bytes diverge through the fallback probe")
	}
	if rs.ra.ETag() != `"v1"` || rs.ra.Size() != int64(len(raw)) {
		t.Fatalf("probe captured etag=%q size=%d", rs.ra.ETag(), rs.ra.Size())
	}
}

func TestOpenRemoteErrors(t *testing.T) {
	if _, err := OpenRemote("ftp://host/x.atc", RemoteOptions{}); !errors.Is(err, ErrRemote) {
		t.Fatalf("non-http URL err = %v, want ErrRemote", err)
	}
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if _, err := OpenRemote(notFound.URL, RemoteOptions{Client: notFound.Client()}); !errors.Is(err, ErrRemote) {
		t.Fatalf("404 err = %v, want ErrRemote", err)
	}
	// A server answering 200 to ranged requests cannot back a RemoteStore.
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		w.Write(testObject(100))
	}))
	defer full.Close()
	if _, err := OpenRemote(full.URL, RemoteOptions{Client: full.Client()}); !errors.Is(err, ErrRemote) {
		t.Fatalf("no-Range server err = %v, want ErrRemote", err)
	}
}

func TestParseContentRange(t *testing.T) {
	off, end, total, err := parseContentRange("bytes 100-199/5000")
	if err != nil || off != 100 || end != 199 || total != 5000 {
		t.Fatalf("parseContentRange = %d, %d, %d, %v", off, end, total, err)
	}
	for _, bad := range []string{"", "bytes */5000", "bytes 100-199/*", "100-199/5000", "bytes x-y/z",
		"bytes 9-3/10", "bytes 5-10/10"} {
		if _, _, _, err := parseContentRange(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("parseContentRange(%q) err = %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestIsRemoteURL(t *testing.T) {
	for url, want := range map[string]bool{
		"http://h/x.atc":  true,
		"https://h/x.atc": true,
		"/tmp/x.atc":      false,
		"httpx://h":       false,
	} {
		if got := IsRemoteURL(url); got != want {
			t.Errorf("IsRemoteURL(%q) = %v, want %v", url, got, want)
		}
	}
}
