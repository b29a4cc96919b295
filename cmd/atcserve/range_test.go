package main

// Tests of inbound HTTP Range support on binary /addrs responses and of
// the process-wide byte-budgeted chunk cache wired through the serving
// stack.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"atc"
	"atc/internal/obs"
)

// fetchWithRange issues a GET with optional Range/If-Range/If-None-Match
// headers and returns the response with its body read.
func fetchWithRange(t *testing.T, url string, hdrs map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeAddrsByteRangeProperty cross-checks ~30 random byte ranges —
// deliberately not 8-byte aligned — against the corresponding slice of
// the full binary payload.
func TestServeAddrsByteRangeProperty(t *testing.T) {
	_, srv := serveTestTrace(t, 2, 1<<20)
	url := srv.URL + "/traces/unit/addrs?from=100&to=2100"
	full := fetchBytes(t, url)
	byteLen := int64(len(full))
	if byteLen != 2000*8 {
		t.Fatalf("full payload = %d bytes, want %d", byteLen, 2000*8)
	}
	rng := rand.New(rand.NewSource(206))
	type tc struct {
		header     string
		start, end int64 // expected inclusive window
	}
	cases := []tc{
		{"bytes=0-15999", 0, 15999},            // exact full range is still a 206
		{"bytes=0-0", 0, 0},                    // single byte
		{"bytes=15999-15999", 15999, 15999},    // last byte
		{"bytes=8000-", 8000, 15999},           // open-ended
		{"bytes=-72", 15928, 15999},            // suffix
		{"bytes=-1000000", 0, 15999},           // oversized suffix clamps to everything
		{"bytes=15000-99999999", 15000, 15999}, // last-byte position clamps
		{"bytes=3-20", 3, 20},                  // unaligned head and tail
		{"bytes= 40-80", 40, 80},               // optional whitespace
	}
	for i := 0; i < 30; i++ {
		a := rng.Int63n(byteLen)
		b := a + rng.Int63n(byteLen-a)
		cases = append(cases, tc{fmt.Sprintf("bytes=%d-%d", a, b), a, b})
	}
	for _, c := range cases {
		resp, body := fetchWithRange(t, url, map[string]string{"Range": c.header})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("Range %q: status %d, want 206", c.header, resp.StatusCode)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", c.start, c.end, byteLen)
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("Range %q: Content-Range %q, want %q", c.header, got, wantCR)
		}
		if resp.Header.Get("Accept-Ranges") != "bytes" {
			t.Fatalf("Range %q: missing Accept-Ranges: bytes", c.header)
		}
		if cl := resp.ContentLength; cl != c.end-c.start+1 {
			t.Fatalf("Range %q: Content-Length %d, want %d", c.header, cl, c.end-c.start+1)
		}
		if !bytes.Equal(body, full[c.start:c.end+1]) {
			t.Fatalf("Range %q: body (%d bytes) differs from full[%d:%d]", c.header, len(body), c.start, c.end+1)
		}
		if resp.Header.Get("Etag") == "" {
			t.Fatalf("Range %q: partial response lost its ETag", c.header)
		}
	}
}

// TestServeAddrsRangeIgnoredAndUnsatisfiable covers the RFC 9110 "ignore
// the header" cases (full 200) versus the 416 cases, plus the
// conditional-request interactions.
func TestServeAddrsRangeIgnoredAndUnsatisfiable(t *testing.T) {
	_, srv := serveTestTrace(t, 2, 1<<20)
	url := srv.URL + "/traces/unit/addrs?from=0&to=1000"
	const byteLen = 1000 * 8
	full := fetchBytes(t, url)

	// Ignored: serve the full representation with a 200.
	for _, h := range []string{
		"bytes=5-2",     // inverted
		"bytes=2-4,6-9", // multiple ranges
		"chunks=0-99",   // non-bytes unit
		"bytes=abc-def", // garbage
		"bytes=12",      // no dash
		"bytes=-0x10",   // non-decimal suffix
		"bytes=+0-3",    // signed first byte
		"bytes=0-+3",    // signed last byte
		"bytes=-+5",     // signed suffix
	} {
		resp, body := fetchWithRange(t, url, map[string]string{"Range": h})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Range %q: status %d, want 200 (header ignored)", h, resp.StatusCode)
		}
		if !bytes.Equal(body, full) {
			t.Fatalf("Range %q: ignored-range body differs from full payload", h)
		}
	}

	// Unsatisfiable: 416 with the current length in Content-Range.
	for _, h := range []string{
		fmt.Sprintf("bytes=%d-", byteLen),        // first byte at the end
		fmt.Sprintf("bytes=%d-99999", byteLen+5), // past the end with a last byte
		"bytes=-0",                               // empty suffix
	} {
		resp, _ := fetchWithRange(t, url, map[string]string{"Range": h})
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("Range %q: status %d, want 416", h, resp.StatusCode)
		}
		if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes */%d", byteLen); got != want {
			t.Fatalf("Range %q: Content-Range %q, want %q", h, got, want)
		}
	}

	// If-Range with the current ETag keeps the partial; any other
	// validator falls back to the full representation.
	etagResp, _ := fetchWithRange(t, url, nil)
	etag := etagResp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("binary /addrs response has no ETag")
	}
	resp, body := fetchWithRange(t, url, map[string]string{"Range": "bytes=16-79", "If-Range": etag})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, full[16:80]) {
		t.Fatalf("If-Range match: status %d, %d bytes; want 206 with 64 bytes", resp.StatusCode, len(body))
	}
	resp, body = fetchWithRange(t, url, map[string]string{"Range": "bytes=16-79", "If-Range": `"stale"`})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, full) {
		t.Fatalf("If-Range mismatch: status %d, %d bytes; want 200 full", resp.StatusCode, len(body))
	}

	// If-None-Match wins over Range: a cached client revalidates to 304.
	resp, _ = fetchWithRange(t, url, map[string]string{"Range": "bytes=0-7", "If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match + Range: status %d, want 304", resp.StatusCode)
	}

	// JSON is not the byte-addressable representation: Range is ignored.
	resp, body = fetchWithRange(t, url+"&format=json", map[string]string{"Range": "bytes=0-7"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON + Range: status %d, want 200", resp.StatusCode)
	}
	var payload struct {
		Addrs []uint64 `json:"addrs"`
	}
	if err := json.Unmarshal(body, &payload); err != nil || len(payload.Addrs) != 1000 {
		t.Fatalf("JSON + Range: %d addrs, err %v; want full 1000", len(payload.Addrs), err)
	}
}

// wellFormedRange matches a single RFC 9110 byte range, as parseByteRange
// reads it after the "bytes=" prefix: first-last, first- or -suffix, each
// position 1*DIGIT.
var wellFormedRange = regexp.MustCompile(`^([0-9]+-[0-9]*|-[0-9]+)$`)

// FuzzParseByteRange checks parseByteRange on any header and payload
// size: it never panics, a range it accepts lies inside the payload, and
// it answers 416 (an error) or accepts only a single well-formed range.
func FuzzParseByteRange(f *testing.F) {
	for _, h := range []string{
		"", "bytes=0-3", "bytes=16-79", "bytes=100-", "bytes=-5", "bytes=-0",
		"bytes=5-2", "bytes=2-4,6-9", "chunks=0-99", "bytes=abc-def", "bytes=12",
		"bytes=-0x10", "bytes=+0-3", "bytes=0-+3", "bytes=-+5", "bytes= 1-2 ",
		"bytes=99999999999999999999-",
	} {
		f.Add(h, uint32(8000))
	}
	f.Add("bytes=0-", uint32(0))
	f.Fuzz(func(t *testing.T, h string, size32 uint32) {
		size := int64(size32)
		rng, ok, err := parseByteRange(h, size)
		if ok && err != nil {
			t.Fatalf("%q size %d: both a range and an error (%v)", h, size, err)
		}
		if ok && (rng.start < 0 || rng.start > rng.end || rng.end >= size) {
			t.Fatalf("%q size %d: range %d-%d outside the payload", h, size, rng.start, rng.end)
		}
		spec, prefixed := strings.CutPrefix(h, "bytes=")
		if (ok || err != nil) && !(prefixed && wellFormedRange.MatchString(strings.TrimSpace(spec))) {
			t.Fatalf("%q size %d: ok=%v err=%v from a header that is not one well-formed range", h, size, ok, err)
		}
	})
}

// TestServeAddrsRangeDecodesSubWindow proves the byte range maps to an
// address sub-window before decoding: a small range inside a large
// requested window touches one segment, not all of them.
func TestServeAddrsRangeDecodesSubWindow(t *testing.T) {
	addrs, srv := serveTestTrace(t, 1, 1<<20)
	url := srv.URL + fmt.Sprintf("/traces/unit/addrs?from=0&to=%d", len(addrs))
	// Bytes of addresses [6000, 6100): inside segment 1 of the 5000-address
	// segmented archive.
	resp, body := fetchWithRange(t, url, map[string]string{"Range": "bytes=48000-48799"})
	if resp.StatusCode != http.StatusPartialContent || len(body) != 800 {
		t.Fatalf("status %d, %d bytes; want 206 with 800", resp.StatusCode, len(body))
	}
	for i := 0; i < 100; i++ {
		want := addrs[6000+i]
		var got uint64
		for b := 0; b < 8; b++ {
			got |= uint64(body[i*8+b]) << (8 * b)
		}
		if got != want {
			t.Fatalf("addr %d = %#x, want %#x", 6000+i, got, want)
		}
	}
	meta := fetchMeta(t, srv.URL+"/traces/unit/meta")
	if meta.ChunkReads != 1 {
		t.Fatalf("chunkReads = %d after one single-segment byte range, want 1", meta.ChunkReads)
	}
}

// TestServeByteBudgetAcrossTraces is the serving-stack acceptance check
// for -cache-bytes: three traces decode through one byte-budgeted cache
// under concurrent load (run with -race), residency never exceeds the
// budget, and /meta surfaces the per-trace byte accounting.
func TestServeByteBudgetAcrossTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shared := atc.NewSharedChunkCacheBytes(96 << 10) // deliberately tight: forces cross-trace eviction
	pools := map[string]*tracePool{}
	total := 0
	for _, name := range []string{"alpha", "beta", "gamma"} {
		addrs := make([]uint64, 30_000)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 26))
		}
		path := filepath.Join(t.TempDir(), name+".atc")
		w, err := atc.CreateArchive(path,
			atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(2000), atc.WithBufferAddrs(1000))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CodeSlice(addrs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		pool, err := openTrace(name, path, poolConfig{readers: 2, sharedBytes: shared})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.close()
		pools[name] = pool
		total = len(addrs)
	}
	srv := httptest.NewServer((&server{pools: pools, maxRange: 1 << 20, maxWait: 5 * time.Second}).handler())
	defer srv.Close()

	stop := make(chan struct{})
	violations := make(chan int64, 1)
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := shared.Stats(); st.ResidentBytes > st.Budget {
				select {
				case violations <- st.ResidentBytes:
				default:
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, name := range []string{"alpha", "beta", "gamma"} {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(name string, g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					from := ((g*20 + i) * 1700) % (total - 2000)
					url := srv.URL + fmt.Sprintf("/traces/%s/addrs?from=%d&to=%d", name, from, from+2000)
					resp, err := http.Get(url)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						t.Error(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", url, resp.StatusCode)
						return
					}
				}
			}(name, g)
		}
	}
	wg.Wait()
	close(stop)
	<-obsDone
	select {
	case over := <-violations:
		t.Fatalf("resident bytes reached %d, budget %d", over, shared.Stats().Budget)
	default:
	}
	st := shared.Stats()
	if st.ResidentBytes > st.Budget {
		t.Fatalf("final resident bytes %d exceed budget %d", st.ResidentBytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("tight budget across 3 traces produced no evictions; test lost its teeth")
	}
	// /meta surfaces the per-trace byte accounting, and the views sum to
	// the global occupancy.
	var viewBytes int64
	for _, name := range []string{"alpha", "beta", "gamma"} {
		meta := fetchMeta(t, srv.URL+"/traces/"+name+"/meta")
		if meta.SharedCacheLoads == 0 {
			t.Fatalf("%s: sharedCacheLoads = 0 after serving traffic", name)
		}
		viewBytes += meta.SharedCacheBytes
	}
	if viewBytes != st.ResidentBytes {
		t.Fatalf("per-trace byte sums = %d, global resident = %d", viewBytes, st.ResidentBytes)
	}
}

// TestTraceRegistrarCardinalityCap verifies -metric-traces: pools past
// the cap fold into one summed trace="other" series set instead of
// growing the registry per trace.
func TestTraceRegistrarCardinalityCap(t *testing.T) {
	reg := obs.NewRegistry()
	tr := newTraceRegistrar(reg, 2)
	shared := atc.NewSharedChunkCacheBytes(1 << 20)
	mk := func(name string, chunks int) *tracePool {
		p := &tracePool{name: name, sharedBytes: shared.ForTrace(name)}
		for id := 0; id < chunks; id++ {
			p.sharedBytes.Put(id, make([]uint64, 10)) // 80 bytes each
		}
		return p
	}
	tr.add(mk("a", 1))
	tr.add(mk("b", 2))
	tr.add(mk("c", 3))
	tr.add(mk("d", 5))
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		`atc_chunk_cache_resident_bytes{trace="a"} 80`,
		`atc_chunk_cache_resident_bytes{trace="b"} 160`,
		`atc_chunk_cache_resident_bytes{trace="other"} 640`, // c and d summed
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `trace="c"`) || strings.Contains(out, `trace="d"`) {
		t.Fatalf("capped traces leaked their own series:\n%s", out)
	}
}
