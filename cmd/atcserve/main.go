// Command atcserve is an HTTP daemon serving random-access reads over
// compressed address traces — the serving tier the chunk-index decoder
// and the archive store's O(1) blob lookup were built for. Each trace
// (a directory, a single-file .atc archive, an archive loaded into
// memory with -mem, or an http(s) URL of an archive in object storage)
// is registered under its base name and served through a pool of
// pre-opened Readers, so concurrent range requests never share decoder
// state while sharing one open store and one shared chunk cache.
//
// Usage:
//
//	atcserve [-addr :8405] [-readers 4] [-mem] [-remote <url>] <trace>...
//
// Remote traces (-remote, or http(s):// positional arguments) are read
// over HTTP Range requests without ever downloading the archive: the TOC
// is fetched at open, and each chunk load is one ranged GET of exactly
// that chunk's extent, cached decoded in the chunk cache. atcserve is then
// a stateless tier in front of object storage — any instance can serve
// any trace, and instances can scale horizontally with no local state
// beyond warm caches.
//
// Endpoints:
//
//	GET /traces                          JSON list of the served traces
//	GET /traces/{name}/meta              JSON metadata (?index=1 adds the
//	                                     chunk index)
//	GET /traces/{name}/addrs?from=&to=   the addresses at trace positions
//	                                     [from, to): raw 64-bit
//	                                     little-endian values by default
//	                                     (the bin2atc/atc2bin wire format),
//	                                     or JSON with ?format=json; add
//	                                     ?trace=1 for per-stage decode
//	                                     timings (an ATC-Trace header, and
//	                                     an embedded trace object in JSON).
//	                                     Binary responses honor HTTP Range
//	                                     headers (bytes of the wire format,
//	                                     single range): 206 with
//	                                     Content-Range, decoding only the
//	                                     covering address sub-window
//
// Every trace decodes through one process-wide chunk cache with a byte
// budget (-cache-bytes, default 256 MiB of decoded addresses, must be
// > 0): hot chunks stay resident across traces under one memory cap.
// Per-trace metric series are capped at -metric-traces names; later
// traces aggregate under trace="other".
//
// With -debug-addr set, a second listener serves operational diagnostics:
// /metrics (Prometheus text format), /debug/obs (JSON metrics dump) and
// /debug/pprof. Requests are logged structurally (log/slog) with request
// id, trace, range, status, duration and chunks touched.
//
// Responses carry HTTP cache validators: /addrs payloads are immutable
// (ETag + Cache-Control: public, max-age, so CDNs absorb repeat traffic),
// /meta and /traces revalidate on every use (Cache-Control: no-cache).
// When every pooled reader stays busy past -max-wait the request is
// refused with 429 and a Retry-After, keeping overload visible instead of
// queueing without bound.
//
// Example session:
//
//	tracegen -model 429.mcf -n 1000000 | bin2atc -archive -lossless mcf.atc
//	atcserve mcf.atc &
//	curl localhost:8405/traces/mcf/meta
//	curl "localhost:8405/traces/mcf/addrs?from=500000&to=500100&format=json"
//
//	# the same archive served straight from object storage:
//	atcserve -remote https://bucket.example.com/traces/mcf.atc
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"atc"
	"atc/internal/obs"
	"atc/internal/store"
	"atc/internal/trace"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// logger is the process-wide structured logger; main reconfigures it from
// flags before any output. Package scope so helpers shared with tests
// (writeDecodeError) can log without threading a logger through.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	addr := flag.String("addr", ":8405", "listen address")
	debugAddr := flag.String("debug-addr", "", "diagnostics listen address serving /metrics, /debug/obs and /debug/pprof (disabled when empty)")
	readers := flag.Int("readers", 4, "pooled readers per trace (max concurrent range decodes)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "process-wide chunk cache budget in decoded bytes, shared by every pooled reader of every trace (must be > 0)")
	metricTraces := flag.Int("metric-traces", 100, "per-trace labeled metric series cap: counters for traces beyond it collapse into trace=\"other\"")
	mem := flag.Bool("mem", false, "load .atc archives fully into memory and serve from RAM")
	maxRange := flag.Int64("max-range", 16<<20, "largest [from, to) window served per request, in addresses")
	maxWait := flag.Duration("max-wait", 2*time.Second, "longest a request waits for a pooled reader before 429")
	var remotes multiFlag
	flag.Var(&remotes, "remote", "serve a remote .atc archive by URL over HTTP Range reads (repeatable)")
	flag.Int("remote-blocks", 0, "ignored: remote reads fetch whole chunk extents and keep no block cache (accepted so existing command lines still parse)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: atcserve [flags] <directory | file.atc | http(s)://...>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	sources := append(flag.Args(), remotes...)
	if len(sources) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *cacheBytes <= 0 {
		fmt.Fprintf(os.Stderr, "atcserve: -cache-bytes must be > 0, got %d\n", *cacheBytes)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	cfg := poolConfig{
		mem:         *mem,
		readers:     *readers,
		sharedBytes: atc.NewSharedChunkCacheBytes(*cacheBytes),
		registrar:   newTraceRegistrar(obs.Default(), *metricTraces),
	}
	cfg.sharedBytes.Register(obs.Default())
	srv := &server{
		pools:    map[string]*tracePool{},
		maxRange: *maxRange,
		maxWait:  *maxWait,
		log:      logger,
		met:      newServeMetrics(obs.Default()),
	}
	for _, path := range sources {
		name := traceName(path)
		if _, dup := srv.pools[name]; dup {
			fatal("duplicate trace name", "name", name, "source", path)
		}
		pool, err := openTrace(name, path, cfg)
		if err != nil {
			fatal("open trace", "source", path, "err", err)
		}
		srv.pools[name] = pool
		logger.Info("serving trace", "name", name, "mode", pool.meta.Mode,
			"addrs", pool.meta.TotalAddrs, "records", pool.meta.Records, "source", path)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugHandler()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
		logger.Info("debug listening", "addr", *debugAddr)
	}
	select {
	case err := <-errc:
		fatal("serve", "err", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight requests (10s
	// deadline), then release every pooled reader and its backing store.
	// The drain outcome is logged either way: how many in-flight requests
	// completed, and — when the deadline expires — how many were aborted.
	inFlightStart := srv.inFlight.Load()
	logger.Info("shutting down", "inFlight", inFlightStart)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	aborted := srv.inFlight.Load()
	drained := inFlightStart - aborted
	if err != nil {
		logger.Warn("shutdown deadline expired", "drained", drained, "aborted", aborted, "err", err)
	} else {
		logger.Info("shutdown complete", "drained", drained, "served", srv.reqSeq.Load())
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	for _, pool := range srv.pools {
		pool.close()
	}
}

// debugHandler wires the diagnostics mux: Prometheus metrics, the obs
// JSON dump, and net/http/pprof (registered explicitly — the debug
// listener serves its own mux, not DefaultServeMux).
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.Handle("GET /debug/obs", obs.Default().DebugHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceName derives the registration name from a path or URL: the base
// name, with a .atc extension stripped.
func traceName(p string) string {
	name := filepath.Base(filepath.Clean(p))
	if store.IsRemoteURL(p) {
		if u, err := url.Parse(p); err == nil {
			name = path.Base(u.Path)
		}
	}
	return strings.TrimSuffix(name, ".atc")
}

// traceMeta is the JSON shape of GET /traces/{name}/meta.
type traceMeta struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"`
	FormatVersion int     `json:"formatVersion"`
	TotalAddrs    int64   `json:"totalAddrs"`
	Records       int     `json:"records"`
	Chunks        int     `json:"chunks"`
	IntervalLen   int     `json:"intervalLen,omitempty"`
	SegmentAddrs  int     `json:"segmentAddrs,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	// ChunkReads counts chunk-blob decompressions across the trace's
	// pooled readers since startup (chunk-cache hits do not count) — the
	// serving tier's cache-effectiveness observable: requests served
	// from pooled readers' chunk caches leave it unchanged. With the
	// shared chunk cache on (the default), it counts each hot chunk once
	// per process, not once per reader.
	ChunkReads int64 `json:"chunkReads"`
	// SharedCacheHits/SharedCacheLoads report the trace's traffic through
	// its view of the process-wide byte-budgeted chunk cache, and
	// SharedCacheBytes its resident decoded bytes there (each absent
	// while zero).
	SharedCacheHits  int64 `json:"sharedCacheHits,omitempty"`
	SharedCacheLoads int64 `json:"sharedCacheLoads,omitempty"`
	SharedCacheBytes int64 `json:"sharedCacheBytes,omitempty"`
	// RemoteFetches/RemoteBytes report the remote store's origin
	// traffic for -remote traces (absent for local ones).
	RemoteFetches int64 `json:"remoteFetches,omitempty"`
	RemoteBytes   int64 `json:"remoteBytes,omitempty"`
}

// indexEntry is the JSON shape of one chunk-index span (?index=1).
type indexEntry struct {
	Start     int64 `json:"start"`
	End       int64 `json:"end"`
	ChunkID   int   `json:"chunkId"`
	Imitation bool  `json:"imitation,omitempty"`
}

// tracePool serves one trace: a shared open store plus a fixed pool of
// Readers. A request borrows a Reader for the duration of its decode, so
// at most cap(readers) range decodes run concurrently per trace and no
// decoder state is ever shared between requests.
type tracePool struct {
	name    string
	meta    traceMeta
	index   []atc.ChunkSpan
	st      atc.Store
	readers chan *atc.Reader
	// all references every pooled reader for metrics: Reader.ChunkReads
	// is an atomic counter, safe to sum while a reader is borrowed.
	all []*atc.Reader
	// sharedBytes is the trace's view of the process-wide byte-budgeted
	// cache (-cache-bytes); remote the backing remote store (nil for local
	// traces). Both feed live counters into metaNow.
	sharedBytes *atc.TraceChunkCache
	remote      *store.RemoteStore
	// etag is the trace's strong HTTP validator, derived from the
	// immutable decode identity (name, mode, totals, chunk index) at open;
	// etagHex is the same digest unquoted, for composing per-range
	// validators.
	etag, etagHex string
}

// chunkReads sums chunk-blob decompressions across the pool's readers.
func (p *tracePool) chunkReads() int64 {
	var n int64
	for _, r := range p.all {
		n += r.ChunkReads()
	}
	return n
}

// poolConfig carries per-trace pool tuning from flags to openTrace.
type poolConfig struct {
	mem     bool
	readers int
	// sharedBytes is the process-wide byte-budgeted chunk cache every
	// trace shares (-cache-bytes), required: each pool decodes through
	// its ForTrace view, so one memory cap covers all pooled readers of
	// all traces.
	sharedBytes *atc.SharedChunkCacheBytes
	// registrar, when set, registers each pool's per-trace labeled func
	// metrics (chunk reads, shared-cache and remote counters) at open,
	// under the per-trace cardinality cap (-metric-traces). Nil in tests
	// that need no metrics.
	registrar *traceRegistrar
}

// openTrace opens the store once (directory, archive, archive bytes in
// RAM, or a remote archive URL) and pre-opens the pooled readers against
// it, failing fast on a trace that does not decode. Every reader decodes
// through the trace's view of the shared cache, so a hot chunk
// decompresses once per process rather than once per reader.
func openTrace(name, path string, cfg poolConfig) (*tracePool, error) {
	n := cfg.readers
	if n < 1 {
		n = 1
	}
	var st atc.Store
	var remote *store.RemoteStore
	switch {
	case store.IsRemoteURL(path):
		if cfg.mem {
			return nil, fmt.Errorf("-mem applies to local archives only (remote traces already read on demand)")
		}
		rst, err := store.OpenRemote(path, store.RemoteOptions{})
		if err != nil {
			return nil, err
		}
		st, remote = rst, rst
	default:
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		switch {
		case fi.IsDir():
			if cfg.mem {
				return nil, fmt.Errorf("-mem serves single-file archives, not directories (pack %s with atcpack first)", path)
			}
			st = store.OpenDir(path)
		case cfg.mem:
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			ast, err := store.OpenArchiveReaderAt(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				return nil, err
			}
			st = ast
		default:
			ast, err := store.OpenArchive(path)
			if err != nil {
				return nil, err
			}
			st = ast
		}
	}
	p := &tracePool{
		name: name, st: st, remote: remote, readers: make(chan *atc.Reader, n),
		sharedBytes: cfg.sharedBytes.ForTrace(name),
	}
	readerOpts := []atc.ReadOption{
		// Readahead is disabled: a range server decodes exactly the chunks
		// a request asks for, and prefetch past the window would be waste.
		atc.WithReadStore(st), atc.WithReadahead(-1),
		atc.WithChunkCache(p.sharedBytes),
	}
	for i := 0; i < n; i++ {
		r, err := atc.NewReader(path, readerOpts...)
		if err != nil {
			p.close()
			return nil, err
		}
		p.all = append(p.all, r)
		p.readers <- r
	}
	r := <-p.readers
	p.index = r.ChunkIndex()
	chunks := map[int]bool{}
	for _, sp := range p.index {
		chunks[sp.ChunkID] = true
	}
	p.meta = traceMeta{
		Name:          name,
		Mode:          r.Mode().String(),
		FormatVersion: r.FormatVersion(),
		TotalAddrs:    r.TotalAddrs(),
		Records:       r.Records(),
		Chunks:        len(chunks),
		SegmentAddrs:  r.SegmentAddrs(),
	}
	if r.Mode() == atc.Lossy {
		p.meta.IntervalLen = r.IntervalLen()
		p.meta.Epsilon = r.Epsilon()
	}
	p.etagHex = traceETagHex(p.meta, p.index)
	p.etag = `"` + p.etagHex + `"`
	p.readers <- r
	if cfg.registrar != nil {
		cfg.registrar.add(p)
	}
	return p, nil
}

// registerPoolMetrics exposes the summed live counters of pools under a
// trace=label series set: thin views over the same atomics /meta
// reports, so the two surfaces can never disagree. With a single pool
// under its own name this is the ordinary per-trace registration; the
// cardinality-capped overflow
// re-registers a growing pool list under trace="other" (func-metric
// registration is last-wins, so each re-registration swaps in closures
// over the larger set).
func registerPoolMetrics(reg *obs.Registry, label string, pools []*tracePool) {
	pools = append([]*tracePool(nil), pools...) // closures must not alias a caller slice that keeps growing
	lbl := obs.Label{Key: "trace", Value: label}
	sum := func(f func(*tracePool) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, p := range pools {
				n += f(p)
			}
			return n
		}
	}
	reg.CounterFunc("atc_trace_chunk_reads_total",
		"chunk-blob decompressions across the trace's pooled readers",
		sum((*tracePool).chunkReads), lbl)
	reg.CounterFunc("atc_chunk_cache_hits_total",
		"chunk lookups served from the shared cache or deduplicated onto an in-flight load",
		sum(func(p *tracePool) int64 { return p.sharedBytes.Stats().Hits }), lbl)
	reg.CounterFunc("atc_chunk_cache_loads_total",
		"chunk decompressions through the shared cache (misses)",
		sum(func(p *tracePool) int64 { return p.sharedBytes.Stats().Loads }), lbl)
	reg.CounterFunc("atc_chunk_cache_evictions_total",
		"chunks evicted from the shared cache",
		sum(func(p *tracePool) int64 { return p.sharedBytes.Stats().Evictions }), lbl)
	reg.GaugeFunc("atc_chunk_cache_resident_chunks",
		"chunks currently resident in the shared cache",
		sum(func(p *tracePool) int64 { return p.sharedBytes.Stats().ResidentChunks }), lbl)
	reg.GaugeFunc("atc_chunk_cache_resident_bytes",
		"decoded bytes this trace holds in the process-wide byte-budgeted cache",
		sum(func(p *tracePool) int64 { return p.sharedBytes.Stats().ResidentBytes }), lbl)
	anyRemote := false
	for _, p := range pools {
		anyRemote = anyRemote || p.remote != nil
	}
	if anyRemote {
		reg.CounterFunc("atc_trace_remote_fetches_total",
			"ranged GETs issued for this trace's remote archive",
			sum(func(p *tracePool) int64 {
				if p.remote == nil {
					return 0
				}
				return p.remote.ReaderStats().Fetches
			}), lbl)
		reg.CounterFunc("atc_trace_remote_fetch_bytes_total",
			"payload bytes fetched for this trace's remote archive",
			sum(func(p *tracePool) int64 {
				if p.remote == nil {
					return 0
				}
				return p.remote.ReaderStats().BytesFetched
			}), lbl)
	}
}

// traceRegistrar applies the per-trace metric cardinality cap
// (-metric-traces): the first cap pools each get their own trace="name"
// series, and every later pool's counters collapse into one summed
// trace="other" series set — a replica serving thousands of traces keeps
// a bounded scrape size instead of an unboundedly growing registry.
type traceRegistrar struct {
	reg   *obs.Registry
	cap   int
	named int
	other []*tracePool
}

func newTraceRegistrar(reg *obs.Registry, cap int) *traceRegistrar {
	if cap < 0 {
		cap = 0
	}
	return &traceRegistrar{reg: reg, cap: cap}
}

// add registers one pool's metrics, under its own name while the cap
// allows and into the shared overflow series after. Pools register
// serially at startup; add is not safe for concurrent use.
func (t *traceRegistrar) add(p *tracePool) {
	if t.named < t.cap {
		t.named++
		registerPoolMetrics(t.reg, p.name, []*tracePool{p})
		return
	}
	t.other = append(t.other, p)
	registerPoolMetrics(t.reg, "other", t.other)
}

// traceETagHex digests the trace's immutable decode identity — name,
// mode/format metadata, totals and the full chunk index — into a strong
// HTTP validator. Live counters (chunkReads, cache stats) are deliberately
// excluded: the validator must name the payload bytes a range request
// yields, and those depend only on this identity.
func traceETagHex(meta traceMeta, index []atc.ChunkSpan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d|%d|%g",
		meta.Name, meta.Mode, meta.FormatVersion, meta.TotalAddrs,
		meta.Records, meta.Chunks, meta.SegmentAddrs, meta.IntervalLen, meta.Epsilon)
	for _, sp := range index {
		fmt.Fprintf(h, "|%d:%d:%d:%t", sp.Start, sp.End, sp.ChunkID, sp.Imitation)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// etagMatches reports whether an If-None-Match header names etag: any
// member of its comma-separated list, with weak W/ prefixes ignored for
// the GET-revalidation comparison, or the wildcard.
func etagMatches(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c), "W/"))
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// errBusy reports reader-pool admission failure: every pooled reader
// stayed busy past the bounded wait.
var errBusy = errors.New("every pooled reader is busy")

// acquire borrows a pooled reader. Rather than queueing without bound, a
// request waits at most maxWait for a reader to free up and then fails
// with errBusy (surfaced as 429 + Retry-After): under sustained overload
// the queue stays short and clients get backpressure they can act on.
func (p *tracePool) acquire(ctx context.Context, maxWait time.Duration) (*atc.Reader, error) {
	select {
	case r := <-p.readers:
		return r, nil
	default:
	}
	if maxWait <= 0 {
		return nil, errBusy
	}
	t := time.NewTimer(maxWait)
	defer t.Stop()
	select {
	case r := <-p.readers:
		return r, nil
	case <-t.C:
		return nil, errBusy
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *tracePool) release(r *atc.Reader) { p.readers <- r }

// close drains and closes every pooled reader, then the shared store.
func (p *tracePool) close() {
	for {
		select {
		case r := <-p.readers:
			r.Close()
		default:
			p.st.Close()
			return
		}
	}
}

// server routes trace requests to pools.
type server struct {
	pools    map[string]*tracePool
	maxRange int64
	maxWait  time.Duration
	// log and met are defaulted lazily by handler() so tests building a
	// bare &server{pools: ...} literal keep working.
	log *slog.Logger
	met *serveMetrics
	// reqSeq numbers requests for log correlation; inFlight counts
	// requests between middleware entry and exit, read by the shutdown
	// path to report drained vs aborted work.
	reqSeq   atomic.Int64
	inFlight atomic.Int64
}

// serveMetrics is the HTTP tier's registry slice: per-route counters by
// status class, per-route latency histograms, admission gauges and the
// cache/backpressure outcome counters. Every series is pre-registered so
// the hot path only ever touches atomics.
type serveMetrics struct {
	requests map[string][6]*obs.Counter // route -> status class 0..5 (1xx..5xx; 0 = other)
	latency  map[string]*obs.Histogram
	inFlight *obs.Gauge
	waiting  *obs.Gauge
	poolWait *obs.Histogram
	notMod   *obs.Counter
	throttle *obs.Counter
}

// serveRoutes are the metric label values for the three endpoints.
var serveRoutes = []string{"list", "meta", "addrs"}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		requests: map[string][6]*obs.Counter{},
		latency:  map[string]*obs.Histogram{},
		inFlight: reg.Gauge("atc_http_in_flight_requests", "requests currently being served"),
		waiting:  reg.Gauge("atc_http_pool_waiting_requests", "requests currently waiting for a pooled reader"),
		poolWait: reg.Histogram("atc_http_pool_wait_seconds",
			"time spent acquiring a pooled reader (including immediate grants)", obs.DurationBuckets),
		notMod: reg.Counter("atc_http_not_modified_total",
			"conditional requests answered 304 from a matching validator"),
		throttle: reg.Counter("atc_http_throttled_total",
			"requests refused 429 because every pooled reader stayed busy past -max-wait"),
	}
	for _, route := range serveRoutes {
		var byClass [6]*obs.Counter
		for class := range byClass {
			cls := "other"
			if class > 0 {
				cls = strconv.Itoa(class) + "xx"
			}
			byClass[class] = reg.Counter("atc_http_requests_total", "HTTP requests served by route and status class",
				obs.Label{Key: "route", Value: route}, obs.Label{Key: "class", Value: cls})
		}
		m.requests[route] = byClass
		m.latency[route] = reg.Histogram("atc_http_request_seconds",
			"HTTP request latency by route", obs.DurationBuckets,
			obs.Label{Key: "route", Value: route})
	}
	return m
}

// statusWriter captures the status code and body size a handler produced.
// An unset status means the handler wrote the body directly: 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// reqStats is per-request context the /addrs handler fills in for the
// request log line: the decode window, pool-wait time, and the decode
// trace whose chunk counters the log reports.
type reqStats struct {
	trace    string
	from, to int64
	ranged   bool
	wait     time.Duration
	dec      *obs.Trace
}

type reqStatsKey struct{}

// statsFrom returns the request's reqStats, installed by instrument.
func statsFrom(r *http.Request) *reqStats {
	rs, _ := r.Context().Value(reqStatsKey{}).(*reqStats)
	return rs
}

// instrument wraps a route handler with the serving tier's observability:
// request counting by status class, latency histograms, the in-flight
// gauge, and one structured log line per request.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		s.inFlight.Add(1)
		s.met.inFlight.Inc()
		start := time.Now()
		rs := &reqStats{}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(context.WithValue(r.Context(), reqStatsKey{}, rs)))
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		class := 0
		if status >= 100 && status < 600 {
			class = status / 100
		}
		s.met.requests[route][class].Inc()
		s.met.latency[route].ObserveDuration(dur)
		if status == http.StatusNotModified {
			s.met.notMod.Inc()
		}
		s.met.inFlight.Dec()
		s.inFlight.Add(-1)

		args := []any{
			"id", id, "route", route, "status", status,
			"dur", dur.Round(time.Microsecond), "bytes", sw.bytes,
		}
		if rs.trace != "" {
			args = append(args, "trace", rs.trace)
		}
		if rs.ranged {
			args = append(args, "from", rs.from, "to", rs.to, "wait", rs.wait.Round(time.Microsecond))
		}
		if rs.dec != nil {
			args = append(args, "chunks", rs.dec.ChunkLoads(), "cacheHits", rs.dec.CacheHits())
		}
		s.log.Info("request", args...)
	}
}

// HTTP caching contract. A served trace is immutable for the life of the
// process — its decode identity is digested into a strong ETag at open —
// so the endpoints split cleanly:
//
//   - /traces/{name}/addrs: the payload for a given (trace, from, to,
//     format) never changes. Responses carry a per-range strong ETag and
//     "Cache-Control: public, max-age=31536000, immutable", so browsers
//     and CDNs in front of a stateless atcserve tier absorb repeat range
//     traffic entirely; If-None-Match revalidations answer 304 without
//     touching the reader pool.
//   - /traces/{name}/meta and /traces: the body embeds live counters
//     (chunkReads, cache and remote-fetch stats), so responses are
//     "Cache-Control: no-cache" — cacheable but revalidated on every
//     use. /meta's ETag deliberately covers only the immutable identity,
//     not the counters: a 304 may serve slightly stale counters, which is
//     the documented trade for cheap revalidation of the part consumers
//     key decisions off (the trace identity). Counter-polling clients
//     should send no validator.
//
// If a trace is ever re-registered with different content, its ETag
// changes with the identity digest, invalidating every cached range.
const addrsCacheControl = "public, max-age=31536000, immutable"

func (s *server) handler() http.Handler {
	// Lazy defaults keep test servers built as bare struct literals valid.
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if s.met == nil {
		s.met = newServeMetrics(obs.Default())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /traces", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /traces/{name}/meta", s.instrument("meta", s.handleMeta))
	mux.HandleFunc("GET /traces/{name}/addrs", s.instrument("addrs", s.handleAddrs))
	return mux
}

func (s *server) pool(w http.ResponseWriter, r *http.Request) *tracePool {
	p, ok := s.pools[r.PathValue("name")]
	if !ok {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return nil
	}
	return p
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// metaNow snapshots the pool's static metadata plus its live counters.
func (p *tracePool) metaNow() traceMeta {
	m := p.meta
	m.ChunkReads = p.chunkReads()
	cs := p.sharedBytes.Stats()
	m.SharedCacheHits, m.SharedCacheLoads, m.SharedCacheBytes = cs.Hits, cs.Loads, cs.ResidentBytes
	if p.remote != nil {
		st := p.remote.ReaderStats()
		m.RemoteFetches, m.RemoteBytes = st.Fetches, st.BytesFetched
	}
	return m
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	metas := make([]traceMeta, 0, len(s.pools))
	for _, p := range s.pools {
		metas = append(metas, p.metaNow())
	}
	// Live counters in the body: revalidate on every use (see the caching
	// contract above addrsCacheControl).
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, map[string]any{"traces": metas})
}

func (s *server) handleMeta(w http.ResponseWriter, r *http.Request) {
	p := s.pool(w, r)
	if p == nil {
		return
	}
	// no-cache with an identity-only ETag: see the caching contract above
	// addrsCacheControl for why counters are excluded from the validator.
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Etag", p.etag)
	if etagMatches(r.Header.Get("If-None-Match"), p.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if v := r.URL.Query().Get("index"); v == "" || v == "0" || v == "false" {
		writeJSON(w, p.metaNow())
		return
	}
	index := make([]indexEntry, len(p.index))
	for i, sp := range p.index {
		index[i] = indexEntry{Start: sp.Start, End: sp.End, ChunkID: sp.ChunkID, Imitation: sp.Imitation}
	}
	writeJSON(w, map[string]any{"meta": p.metaNow(), "index": index})
}

// parseAddr reads one query parameter as a trace position, with a default
// for the empty string.
func parseAddr(q, def string) (int64, error) {
	if q == "" {
		q = def
	}
	return strconv.ParseInt(q, 10, 64)
}

// writeDecodeError maps a DecodeRange failure to an HTTP status by error
// class. Corruption in the stored trace means the request was fine but the
// server's backing data is not: 502 Bad Gateway plus an operator log line,
// never a client-error status. An out-of-range window gets the same 416 as
// the pre-decode bounds check (reachable when a trace is swapped under a
// cached total). Everything else stays 500.
func writeDecodeError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, atc.ErrCorrupt):
		logger.Error("corrupt trace", "trace", name, "err", err)
		http.Error(w, "corrupt trace: "+err.Error(), http.StatusBadGateway)
	case errors.Is(err, atc.ErrOutOfRange):
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// wantTrace reports whether the request opted into per-stage decode
// timing, via the ?trace=1 query parameter or an ATC-Trace header.
func wantTrace(r *http.Request) bool {
	if v := r.URL.Query().Get("trace"); v != "" && v != "0" && v != "false" {
		return true
	}
	return r.Header.Get("Atc-Trace") != ""
}

func (s *server) handleAddrs(w http.ResponseWriter, r *http.Request) {
	p := s.pool(w, r)
	if p == nil {
		return
	}
	rs := statsFrom(r)
	rs.trace = p.name
	total := p.meta.TotalAddrs
	from, err := parseAddr(r.URL.Query().Get("from"), "0")
	if err != nil {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseAddr(r.URL.Query().Get("to"), strconv.FormatInt(total, 10))
	if err != nil {
		http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
		return
	}
	rs.from, rs.to, rs.ranged = from, to, true
	if from < 0 || to < from || to > total {
		http.Error(w, fmt.Sprintf("range [%d, %d) outside trace [0, %d)", from, to, total),
			http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if to-from > s.maxRange {
		http.Error(w, fmt.Sprintf("window of %d addresses exceeds the per-request limit %d",
			to-from, s.maxRange), http.StatusRequestEntityTooLarge)
		return
	}
	format := r.URL.Query().Get("format")
	traced := wantTrace(r)
	// The payload for (trace, from, to, format) is immutable: a matching
	// validator answers 304 before a pooled reader is even acquired. A
	// traced response is diagnostic, not the immutable payload — its
	// timings differ on every decode — so it skips the validator short-cut
	// and carries no cache headers at all.
	etag := fmt.Sprintf(`"%s-%d-%d-%s"`, p.etagHex, from, to, format)
	if !traced && etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("Etag", etag)
		w.Header().Set("Cache-Control", addrsCacheControl)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// The binary payload is a byte-addressable immutable representation,
	// so it honors inbound HTTP ranges: bytes of the wire format (8 per
	// address), one range per request. A byte range maps to the smallest
	// covering address sub-window — only those addresses decode — and a
	// byteWindowWriter trims the odd leading/trailing bytes when the range
	// does not fall on an address boundary. JSON and traced responses are
	// not byte-addressable payloads and ignore Range per RFC 9110.
	byteLen := (to - from) * 8
	var rng byteRange
	partial := false
	if format != "json" && !traced {
		w.Header().Set("Accept-Ranges", "bytes")
		var err error
		rng, partial, err = parseByteRange(r.Header.Get("Range"), byteLen)
		if err != nil {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", byteLen))
			http.Error(w, "unsatisfiable byte range: "+err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		// If-Range: serve the partial only against the exact current
		// validator; anything else gets the full representation.
		if partial && !ifRangeAllows(r.Header.Get("If-Range"), etag) {
			partial = false
		}
	}
	// Admission: the wait for a pooled reader is itself a decode stage —
	// a saturated pool shows up in the trace, not just in the 429 counter.
	tr := &obs.Trace{}
	rs.dec = tr
	waitStart := time.Now()
	s.met.waiting.Inc()
	rd, err := p.acquire(r.Context(), s.maxWait)
	s.met.waiting.Dec()
	rs.wait = time.Since(waitStart)
	tr.AddNS(obs.StageWait, rs.wait.Nanoseconds())
	s.met.poolWait.ObserveDuration(rs.wait)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.met.throttle.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "every pooled reader is busy; retry shortly", http.StatusTooManyRequests)
			return
		}
		http.Error(w, "busy: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	// The per-request recorder rides the borrowed reader for the decode
	// and must be detached before the reader returns to the pool.
	rd.SetDecodeTrace(tr)
	defer func() {
		rd.SetDecodeTrace(nil)
		p.release(rd)
	}()
	w.Header().Set("X-Atc-From", strconv.FormatInt(from, 10))
	w.Header().Set("X-Atc-To", strconv.FormatInt(to, 10))
	w.Header().Set("X-Atc-Count", strconv.FormatInt(to-from, 10))
	if format == "json" {
		addrs, err := rd.DecodeRange(from, to)
		if err != nil {
			writeDecodeError(w, p.name, err)
			return
		}
		// Cache headers only on the success path: error responses must not
		// be cached as immutable.
		if traced {
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Atc-Trace", tr.Header())
			writeJSON(w, map[string]any{"name": p.name, "from": from, "to": to,
				"addrs": addrs, "trace": tr.Summary()})
			return
		}
		w.Header().Set("Etag", etag)
		w.Header().Set("Cache-Control", addrsCacheControl)
		writeJSON(w, map[string]any{"name": p.name, "from": from, "to": to, "addrs": addrs})
		return
	}
	// Binary: raw 64-bit little-endian values, the bin2atc/atc2bin wire
	// format, so curl output diffs directly against atc2bin output. The
	// window is decoded and written in bounded batches through one reused
	// buffer, so a -max-range request costs serveBatchAddrs of transient
	// memory, not the whole window. The first batch decodes before any
	// header is written, keeping decode failures a clean 500; a later
	// failure truncates the body short of Content-Length, which clients
	// detect. A traced response decodes the whole window before writing the
	// Atc-Trace header, so the header covers every stage (headers cannot
	// follow the first body byte); the batching still bounds memory.
	dFrom, dTo := from, to
	if partial {
		// Smallest address window covering the byte range: floor the start,
		// ceil the end to the next address boundary.
		dFrom = from + rng.start/8
		dTo = from + rng.end/8 + 1
	}
	buf, err := rd.DecodeRange(dFrom, min(dFrom+serveBatchAddrs, dTo))
	if err != nil {
		writeDecodeError(w, p.name, err)
		return
	}
	if traced {
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Etag", etag)
		w.Header().Set("Cache-Control", addrsCacheControl)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var out io.Writer = w
	if partial {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", rng.start, rng.end, byteLen))
		w.Header().Set("Content-Length", strconv.FormatInt(rng.end-rng.start+1, 10))
		out = &byteWindowWriter{w: w, skip: rng.start % 8, n: rng.end - rng.start + 1}
		w.WriteHeader(http.StatusPartialContent)
	} else {
		w.Header().Set("Content-Length", strconv.FormatInt(byteLen, 10))
	}
	tw := trace.NewWriter(out)
	for pos := dFrom; ; {
		if pos == dFrom && traced {
			// Finish decoding before the first write commits the headers.
			rest := [][]uint64{}
			for next := dFrom + int64(len(buf)); next < dTo; {
				batch, err := rd.DecodeRange(next, min(next+serveBatchAddrs, dTo))
				if err != nil {
					writeDecodeError(w, p.name, err)
					return
				}
				rest = append(rest, batch)
				next += int64(len(batch))
			}
			w.Header().Set("Atc-Trace", tr.Header())
			start := time.Now()
			if err := tw.WriteSlice(buf); err != nil {
				return
			}
			for _, batch := range rest {
				if err := tw.WriteSlice(batch); err != nil {
					return
				}
			}
			tw.Flush()
			tr.AddNS(obs.StageDeliver, time.Since(start).Nanoseconds())
			return
		}
		start := time.Now()
		err := tw.WriteSlice(buf)
		tr.AddNS(obs.StageDeliver, time.Since(start).Nanoseconds())
		if err != nil {
			return // client went away; nothing useful to report mid-body
		}
		pos += int64(len(buf))
		if pos >= dTo {
			break
		}
		if buf, err = rd.DecodeRangeAppend(buf[:0], pos, min(pos+serveBatchAddrs, dTo)); err != nil {
			// The status is already sent: the client sees a body short of
			// Content-Length, the operator this line. The window was
			// checked before the first batch, so the failure is corruption
			// (an error in writeDecodeError) or a store fault, also the
			// server's.
			logger.Error("decode failed mid-body",
				"trace", p.name, "from", dFrom, "to", dTo, "pos", pos, "err", err)
			return
		}
	}
	tw.Flush()
}

// byteRange is one inbound satisfiable byte range, inclusive on both
// ends per RFC 9110, relative to the binary payload of the requested
// address window.
type byteRange struct{ start, end int64 }

// parseByteRange interprets an inbound Range header against a payload of
// size bytes. It returns ok=false — serve the full representation — for
// an absent header, a non-bytes unit, multiple ranges, syntactic garbage
// or an inverted range (all "ignore the header" cases per RFC 9110), and
// an error — answer 416 — only for a syntactically valid single range
// that cannot be satisfied (first byte at or past the end, or an empty
// suffix). A last-byte position past the end clamps, as the RFC requires.
func parseByteRange(h string, size int64) (byteRange, bool, error) {
	if h == "" {
		return byteRange{}, false, nil
	}
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return byteRange{}, false, nil
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return byteRange{}, false, nil
	}
	if first == "" {
		// Suffix form bytes=-n: the final n bytes.
		n, ok := rangeDigits(last)
		if !ok {
			return byteRange{}, false, nil
		}
		if n == 0 || size == 0 {
			return byteRange{}, false, fmt.Errorf("suffix of %d bytes of a %d-byte payload", n, size)
		}
		start := size - n
		if start < 0 {
			start = 0
		}
		return byteRange{start, size - 1}, true, nil
	}
	start, ok := rangeDigits(first)
	if !ok {
		return byteRange{}, false, nil
	}
	end := size - 1
	if last != "" {
		if end, ok = rangeDigits(last); !ok {
			return byteRange{}, false, nil
		}
		if end < start {
			return byteRange{}, false, nil
		}
		if end > size-1 {
			end = size - 1
		}
	}
	if start >= size {
		return byteRange{}, false, fmt.Errorf("first byte %d of a %d-byte payload", start, size)
	}
	return byteRange{start, end}, true, nil
}

// rangeDigits parses one byte position of a Range header. RFC 9110
// allows only 1*DIGIT there, so a sign, a space or a value past int64
// makes the header garbage.
func rangeDigits(s string) (int64, bool) {
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// ifRangeAllows reports whether an If-Range header permits a partial
// response: no header, or an exact match of the current strong ETag.
// Date forms never match (the payload validator is the ETag).
func ifRangeAllows(h, etag string) bool {
	if h == "" {
		return true
	}
	return strings.TrimSpace(h) == etag
}

// byteWindowWriter passes through the byte window [skip, skip+n) of what
// is written to it and swallows the rest, so the batched decode loop can
// stream whole 8-byte addresses while the client receives exactly the
// requested bytes. It always reports the full input consumed; the decode
// loop stops on its own once the covering address window is written.
type byteWindowWriter struct {
	w    io.Writer
	skip int64 // leading bytes still to drop
	n    int64 // payload bytes still to pass through
}

func (bw *byteWindowWriter) Write(p []byte) (int, error) {
	total := len(p)
	if bw.skip > 0 {
		if int64(total) <= bw.skip {
			bw.skip -= int64(total)
			return total, nil
		}
		p = p[bw.skip:]
		bw.skip = 0
	}
	if bw.n <= 0 {
		return total, nil
	}
	if int64(len(p)) > bw.n {
		p = p[:bw.n]
	}
	written, err := bw.w.Write(p)
	bw.n -= int64(written)
	if err != nil {
		return total, err
	}
	return total, nil
}

// serveBatchAddrs is the binary response's per-batch decode size: 256 Ki
// addresses, 2 MB on the wire.
const serveBatchAddrs = 256 << 10
