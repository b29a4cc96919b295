package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"atc"
	"atc/internal/obs"
)

// serveObsTrace is serveTestTrace with the shared chunk cache on and the
// pool registered on the default registry — the production configuration
// the observability tests pin.
func serveObsTrace(t *testing.T) *httptest.Server {
	return serveObsSegments(t, 40_000, 5000)
}

// serveObsSegments is serveObsTrace over n addresses cut into segments of
// seg addresses.
func serveObsSegments(t *testing.T, n, seg int) *httptest.Server {
	t.Helper()
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i * 64)
	}
	path := filepath.Join(t.TempDir(), "unit.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(seg), atc.WithBufferAddrs(min(seg, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := openTrace("unit", path, poolConfig{readers: 2, sharedBytes: atc.NewSharedChunkCacheBytes(1 << 20), registrar: newTraceRegistrar(obs.Default(), 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&server{pools: map[string]*tracePool{"unit": pool}, maxRange: 1 << 20, maxWait: 5 * time.Second}).handler())
	t.Cleanup(func() {
		srv.Close()
		pool.close()
	})
	return srv
}

// TestServeTracedBinaryAllocation requests a traced binary window over 256
// segments. The traced response decodes its whole window in one range
// call, so the decode's output must grow by doubling, not by each
// segment's length: the request allocates a small multiple of the
// window's bytes.
func TestServeTracedBinaryAllocation(t *testing.T) {
	const n, seg = 1 << 17, 512
	srv := serveObsSegments(t, n, seg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=0&to=" + strconv.Itoa(n) + "&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Atc-Trace") == "" {
		t.Fatal("traced binary response has no Atc-Trace header")
	}
	window := uint64(n * 8)
	if len(raw) != int(window) {
		t.Fatalf("traced binary body = %d bytes, want %d", len(raw), window)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 32*window {
		t.Fatalf("traced request allocated %d KiB for a %d KiB window, want < 32x", alloc>>10, window>>10)
	}
}

// TestMetaJSONShape is the /meta regression gate: the exact key set of the
// JSON body must not drift while counters move to registry-backed views.
// Consumers parse these fields by name; adding a key requires updating
// this test deliberately, renaming or dropping one fails it.
func TestMetaJSONShape(t *testing.T) {
	srv := serveObsTrace(t)
	// Two identical range reads make every counter key non-zero (the
	// second is a shared-cache hit), so omitempty can't hide a rename.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/traces/unit/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"chunkReads", "chunks", "formatVersion", "mode", "name", "records",
		"segmentAddrs", "sharedCacheBytes", "sharedCacheHits", "sharedCacheLoads", "totalAddrs",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("/meta keys = %v, want %v", got, want)
	}
	if body["chunkReads"].(float64) != 2 {
		t.Fatalf("chunkReads = %v, want 2", body["chunkReads"])
	}
}

// TestServeTraceTimings pins the ?trace=1 contract: an Atc-Trace header
// and an embedded stage-timing summary whose total is positive, equals
// the per-stage sum, and fits inside the measured request duration; the
// diagnostic response is uncacheable and skips validator short-cuts.
func TestServeTraceTimings(t *testing.T) {
	srv := serveObsTrace(t)
	start := time.Now()
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000&format=json&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Addrs []uint64         `json:"addrs"`
		Trace obs.TraceSummary `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wall := time.Since(start)
	if resp.Header.Get("Atc-Trace") == "" {
		t.Fatal("traced response has no Atc-Trace header")
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("traced Cache-Control = %q, want no-store", cc)
	}
	if et := resp.Header.Get("Etag"); et != "" {
		t.Fatalf("traced response carries ETag %q", et)
	}
	if len(body.Addrs) != 3000 {
		t.Fatalf("traced decode returned %d addrs, want 3000", len(body.Addrs))
	}
	if body.Trace.TotalNS <= 0 {
		t.Fatalf("trace total = %d ns, want > 0", body.Trace.TotalNS)
	}
	var sum int64
	for _, st := range body.Trace.Stages {
		if st.NS < 0 {
			t.Fatalf("stage %s negative: %d ns", st.Stage, st.NS)
		}
		sum += st.NS
	}
	if sum != body.Trace.TotalNS {
		t.Fatalf("stage sum %d != totalNs %d", sum, body.Trace.TotalNS)
	}
	if sum > wall.Nanoseconds() {
		t.Fatalf("stage sum %v exceeds measured request duration %v", time.Duration(sum), wall)
	}
	if body.Trace.ChunkLoads == 0 {
		t.Fatal("traced cold decode reports no chunk loads")
	}

	// Binary path: same header contract, full payload.
	resp2, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("Atc-Trace") == "" {
		t.Fatal("traced binary response has no Atc-Trace header")
	}
	if len(raw) != 3000*8 {
		t.Fatalf("traced binary body = %d bytes, want %d", len(raw), 3000*8)
	}

	// A matching validator must not short-circuit a traced request: the
	// client asked for fresh timings, not the cached payload.
	plain, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, plain.Body)
	plain.Body.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/traces/unit/addrs?from=4000&to=7000&trace=1", nil)
	req.Header.Set("If-None-Match", plain.Header.Get("Etag"))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("traced revalidation: status %d, want 200 (fresh timings)", resp3.StatusCode)
	}
}

// TestServeMetricsExposition drives real requests through the server and
// asserts the default registry exposes the serving tier's key series in
// Prometheus text format — the same surface the CI smoke test curls.
func TestServeMetricsExposition(t *testing.T) {
	srv := serveObsTrace(t)
	resp, err := http.Get(srv.URL + "/traces/unit/addrs?from=4000&to=7000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/traces/unit/addrs?from=4000&to=7000", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("Etag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", resp2.StatusCode)
	}

	rec := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		// HTTP tier.
		`atc_http_requests_total{class="2xx",route="addrs"} `,
		`atc_http_request_seconds_bucket{route="addrs",le="+Inf"} `,
		`atc_http_request_seconds_count{route="addrs"} `,
		"atc_http_in_flight_requests 0\n",
		"# TYPE atc_http_pool_wait_seconds histogram\n",
		"# TYPE atc_http_not_modified_total counter\n",
		// Decode path.
		"# TYPE atc_decode_chunk_loads_total counter\n",
		"# TYPE atc_decode_stage_seconds histogram\n",
		// Per-trace thin views over the pool's live counters.
		`atc_trace_chunk_reads_total{trace="unit"} `,
		`atc_chunk_cache_loads_total{trace="unit"} `,
		// Remote store series exist at zero even in a local-only process.
		"# TYPE atc_remote_fetches_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}
