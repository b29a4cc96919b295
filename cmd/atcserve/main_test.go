package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"atc"
	"atc/internal/trace"
)

// serveTestTrace compresses a deterministic segmented archive and returns
// its raw addresses plus an httptest server over it.
func serveTestTrace(t *testing.T, readers int, maxRange int64) ([]uint64, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(2009))
	addrs := make([]uint64, 40_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	path := filepath.Join(t.TempDir(), "unit.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(5000), atc.WithBufferAddrs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := openTrace("unit", path, poolConfig{readers: readers, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: maxRange, maxWait: 5 * time.Second}).handler())
	t.Cleanup(func() {
		srv.Close()
		pool.close()
	})
	return addrs, srv
}

func TestServeMeta(t *testing.T) {
	addrs, srv := serveTestTrace(t, 2, 1<<20)
	resp, err := http.Get(srv.URL + "/traces/unit/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta status %d", resp.StatusCode)
	}
	var meta traceMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.TotalAddrs != int64(len(addrs)) || meta.Mode != "lossless" || meta.Records != 8 {
		t.Fatalf("meta = %+v", meta)
	}
	if resp, err := http.Get(srv.URL + "/traces/nope/meta"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace status %d", resp.StatusCode)
		}
	}
}

func TestServeConcurrentRanges(t *testing.T) {
	// More in-flight requests than pooled readers: correctness under
	// contention, and the race detector watches the sharing.
	addrs, srv := serveTestTrace(t, 3, 1<<20)
	n := int64(len(addrs))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			from := rng.Int63n(n)
			to := from + rng.Int63n(min(n-from, 9000))
			resp, err := http.Get(fmt.Sprintf("%s/traces/unit/addrs?from=%d&to=%d", srv.URL, from, to))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("range [%d,%d): status %d", from, to, resp.StatusCode)
				return
			}
			got, err := trace.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if int64(len(got)) != to-from {
				errs <- fmt.Errorf("range [%d,%d): %d addrs", from, to, len(got))
				return
			}
			for j, v := range got {
				if v != addrs[from+int64(j)] {
					errs <- fmt.Errorf("range [%d,%d): diverges at %d", from, to, j)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeMetaChunkReads covers the per-trace metrics hook: meta reports
// the pooled readers' cumulative chunk decompressions, range requests
// advance it by exactly the chunks their window overlaps, and re-reading
// a cached window leaves it unchanged.
func TestServeMetaChunkReads(t *testing.T) {
	_, srv := serveTestTrace(t, 1, 1<<20)
	readsNow := func() int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/traces/unit/meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta traceMeta
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		return meta.ChunkReads
	}
	if n := readsNow(); n != 0 {
		t.Fatalf("chunkReads before any range = %d, want 0", n)
	}
	fetch := func() {
		t.Helper()
		resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("range status %d", resp.StatusCode)
		}
	}
	// The window [4000, 7000) straddles segments 0 and 1 (5000 addresses
	// each): the first fetch decompresses exactly those two chunks.
	fetch()
	if n := readsNow(); n != 2 {
		t.Fatalf("chunkReads after first range = %d, want 2", n)
	}
	// Both chunks are pinned in the single pooled reader's cache: the
	// same window again is served from memory.
	fetch()
	if n := readsNow(); n != 2 {
		t.Fatalf("chunkReads after cached re-read = %d, want 2", n)
	}
}

func TestServeJSONFormat(t *testing.T) {
	addrs, srv := serveTestTrace(t, 1, 1<<20)
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=100&to=110&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		From  int64    `json:"from"`
		To    int64    `json:"to"`
		Addrs []uint64 `json:"addrs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.From != 100 || body.To != 110 || len(body.Addrs) != 10 {
		t.Fatalf("json body = %+v", body)
	}
	for i, v := range body.Addrs {
		if v != addrs[100+i] {
			t.Fatalf("json addrs diverge at %d", i)
		}
	}
}

func TestServeRangeErrors(t *testing.T) {
	_, srv := serveTestTrace(t, 1, 1<<20)
	cases := []struct {
		query string
		want  int
	}{
		{"from=10&to=5", http.StatusRequestedRangeNotSatisfiable},
		{"from=-1&to=5", http.StatusRequestedRangeNotSatisfiable},
		{"from=0&to=40001", http.StatusRequestedRangeNotSatisfiable},
		{"from=abc&to=5", http.StatusBadRequest},
		{"from=0&to=xyz", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + "/traces/unit/addrs?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.query, resp.StatusCode, c.want)
		}
	}
	// Default from/to serve the whole trace (within max-range).
	resp, err := http.Get(srv.URL + "/traces/unit/addrs")
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(got) != 40_000 {
		t.Fatalf("full-trace fetch: %d addrs, err %v", len(got), err)
	}
}

func TestServeMaxRangeCap(t *testing.T) {
	// Windows above the per-request cap are refused with 413; windows at
	// the cap pass.
	_, srv := serveTestTrace(t, 1, 500)
	for _, c := range []struct {
		query string
		want  int
	}{
		{"from=0&to=501", http.StatusRequestEntityTooLarge},
		{"from=0&to=500", http.StatusOK},
	} {
		resp, err := http.Get(srv.URL + "/traces/unit/addrs?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.query, resp.StatusCode, c.want)
		}
	}
}

func TestOpenTraceErrors(t *testing.T) {
	if _, err := openTrace("missing", filepath.Join(t.TempDir(), "missing.atc"), poolConfig{readers: 1, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)}); err == nil {
		t.Fatal("openTrace on a missing path succeeded")
	}
	if _, err := openTrace("dir", t.TempDir(), poolConfig{readers: 1, mem: true, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)}); err == nil {
		t.Fatal("openTrace -mem on a directory succeeded")
	}
	if _, err := openTrace("rem", "http://127.0.0.1:1/x.atc", poolConfig{readers: 1, mem: true, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)}); err == nil {
		t.Fatal("openTrace -mem on a URL succeeded")
	}
}

// TestWriteDecodeErrorTaxonomy pins the decode-failure status mapping:
// corruption in the backing trace is a 502, a stale out-of-range window is
// a 416, anything unclassified stays a 500.
func TestWriteDecodeErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: chunk 3: blob CRC mismatch", atc.ErrCorrupt), http.StatusBadGateway},
		{fmt.Errorf("%w: range [9, 12) outside trace [0, 10)", atc.ErrOutOfRange), http.StatusRequestedRangeNotSatisfiable},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeDecodeError(rec, "unit", c.err)
		if rec.Code != c.want {
			t.Errorf("writeDecodeError(%v): status %d, want %d", c.err, rec.Code, c.want)
		}
	}
}

// TestServeCorruptTrace502 damages one chunk blob of a directory trace and
// asserts the range endpoint reports 502 Bad Gateway — the request was
// valid; the stored data is not — rather than a generic 500 or a
// client-error status.
func TestServeCorruptTrace502(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	dir := t.TempDir()
	w, err := atc.NewWriter(dir,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(5000), atc.WithBufferAddrs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	chunks, err := filepath.Glob(filepath.Join(dir, "[0-9]*.*"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunk blobs found in %s (err %v)", dir, err)
	}
	victim := chunks[len(chunks)/2]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	pool, err := openTrace("unit", dir, poolConfig{readers: 1, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: 1 << 20, maxWait: time.Second}).handler())
	defer func() {
		srv.Close()
		pool.close()
	}()

	resp, err := http.Get(srv.URL + "/traces/unit/addrs?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("corrupt chunk: status %d, want 502; body: %s", resp.StatusCode, body)
	}
}

// TestServeMidBodyDecodeErrorLogged damages a chunk the binary /addrs
// response reaches only after its first batch is sent: the client gets a
// 200 whose body falls short of Content-Length, and the operator gets one
// error log line naming the trace.
func TestServeMidBodyDecodeErrorLogged(t *testing.T) {
	const n, segment = 400_000, 50_000
	rng := rand.New(rand.NewSource(15))
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	dir := t.TempDir()
	w, err := atc.NewWriter(dir, atc.WithMode(atc.Lossless), atc.WithBackend("store"),
		atc.WithSegmentAddrs(segment), atc.WithBufferAddrs(5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chunk 7 covers [300000, 350000), past the first 256 Ki-address batch.
	victim := filepath.Join(dir, "7.store")
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	defer func(l *slog.Logger) { logger = l }(logger)
	logger = slog.New(slog.NewTextHandler(&logs, nil))

	pool, err := openTrace("unit", dir, poolConfig{readers: 1, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: n, maxWait: time.Second}).handler())
	defer func() {
		srv.Close()
		pool.close()
	}()

	resp, err := http.Get(srv.URL + "/traces/unit/addrs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if int64(len(body)) >= resp.ContentLength {
		t.Fatalf("body of %d bytes, want short of Content-Length %d", len(body), resp.ContentLength)
	}
	srv.Close() // waits for the handler, which has logged by then
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if strings.Contains(line, "decode failed mid-body") {
			lines = append(lines, line)
		}
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "level=ERROR") || !strings.Contains(lines[0], "trace=unit") {
		t.Fatalf("mid-body log lines = %q, want one ERROR line naming trace unit", lines)
	}
}

// TestServeCacheHeaders pins the HTTP caching contract: /addrs payloads
// are immutable (strong per-range ETag, public max-age, 304 on
// revalidation without touching the pool), /meta and /traces revalidate
// on every use (no-cache), with /meta's identity-only ETag answering 304.
func TestServeCacheHeaders(t *testing.T) {
	_, srv := serveTestTrace(t, 1, 1<<20)
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=100&to=200")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("addrs response has no ETag")
	}
	if cc := resp.Header.Get("Cache-Control"); cc != addrsCacheControl {
		t.Fatalf("addrs Cache-Control = %q, want %q", cc, addrsCacheControl)
	}
	// A different range must carry a different validator.
	resp2, err := http.Get(srv.URL + "/traces/unit/addrs?from=100&to=201")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if other := resp2.Header.Get("Etag"); other == etag {
		t.Fatalf("distinct ranges share ETag %q", etag)
	}
	// Revalidation with the validator: 304, empty body.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/traces/unit/addrs?from=100&to=200", nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, %d body bytes, want 304 and none", resp3.StatusCode, len(body))
	}

	for _, path := range []string{"/traces", "/traces/unit/meta"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Fatalf("%s Cache-Control = %q, want no-cache", path, cc)
		}
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/traces/unit/meta", nil)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	metaTag := resp4.Header.Get("Etag")
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if metaTag == "" {
		t.Fatal("meta response has no ETag")
	}
	req.Header.Set("If-None-Match", metaTag)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotModified {
		t.Fatalf("meta revalidation: status %d, want 304", resp5.StatusCode)
	}
}

// TestServeBusy429 pins pool admission: with the only pooled reader held
// and a tiny max-wait, a range request is refused with 429 + Retry-After
// instead of queueing unboundedly, and succeeds again once the reader
// returns.
func TestServeBusy429(t *testing.T) {
	addrs := make([]uint64, 2_000)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	path := filepath.Join(t.TempDir(), "unit.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(1000), atc.WithBufferAddrs(500))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := openTrace("unit", path, poolConfig{readers: 1, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: 1 << 20, maxWait: 10 * time.Millisecond}).handler())
	defer func() {
		srv.Close()
		pool.close()
	}()
	held := <-pool.readers // every reader is now busy
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=0&to=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy pool: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	pool.readers <- held
	resp, err = http.Get(srv.URL + "/traces/unit/addrs?from=0&to=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestServeRemoteByteIdentity is the tentpole's end-to-end guarantee: the
// same archive served locally and through a RemoteStore (over a real
// Range-speaking HTTP server) yields byte-identical /addrs responses,
// and the remote pool's meta reports origin fetch counters.
func TestServeRemoteByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	addrs := make([]uint64, 40_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	path := filepath.Join(t.TempDir(), "unit.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(5000), atc.WithBufferAddrs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, path)
	}))
	defer origin.Close()

	localPool, err := openTrace("unit", path, poolConfig{readers: 2, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	remotePool, err := openTrace("unit", origin.URL+"/unit.atc", poolConfig{
		readers: 2, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	local := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": localPool}, maxRange: 1 << 20, maxWait: time.Second}).handler())
	remote := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": remotePool}, maxRange: 1 << 20, maxWait: time.Second}).handler())
	defer func() {
		local.Close()
		remote.Close()
		localPool.close()
		remotePool.close()
	}()

	for _, q := range []string{
		"from=0&to=1000", "from=4990&to=5010", "from=17000&to=23000", "from=39000&to=40000",
	} {
		want := fetchBytes(t, local.URL+"/traces/unit/addrs?"+q)
		got := fetchBytes(t, remote.URL+"/traces/unit/addrs?"+q)
		if !bytes.Equal(got, want) {
			t.Fatalf("range %s: remote bytes diverge from local (%d vs %d bytes)", q, len(got), len(want))
		}
	}
	meta := fetchMeta(t, remote.URL+"/traces/unit/meta")
	if meta.RemoteFetches == 0 || meta.RemoteBytes == 0 {
		t.Fatalf("remote meta counters = %+v, want nonzero origin traffic", meta)
	}
}

func fetchBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fetchMeta(t *testing.T, url string) traceMeta {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta traceMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestServeSharedCacheExactlyOnce wires the shared chunk cache through the
// whole serving stack: many concurrent requests for one hot window across
// a multi-reader pool decompress each covered chunk exactly once
// process-wide, observable through /meta's chunkReads.
func TestServeSharedCacheExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 40_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	path := filepath.Join(t.TempDir(), "unit.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(5000), atc.WithBufferAddrs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := openTrace("unit", path, poolConfig{readers: 4, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: 1 << 20, maxWait: 5 * time.Second}).handler())
	defer func() {
		srv.Close()
		pool.close()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The hot window [4000, 7000) straddles segments 0 and 1.
			resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	meta := fetchMeta(t, srv.URL+"/traces/unit/meta")
	if meta.ChunkReads != 2 {
		t.Fatalf("chunkReads = %d, want 2 (exactly one decompression per covered chunk across 16 requests x 4 readers)", meta.ChunkReads)
	}
	if meta.SharedCacheLoads != 2 || meta.SharedCacheHits == 0 {
		t.Fatalf("shared cache stats = loads %d hits %d, want 2 loads and nonzero hits", meta.SharedCacheLoads, meta.SharedCacheHits)
	}
}
