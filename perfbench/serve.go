package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atc"
	"atc/internal/workload"
)

// servedTrace is one archive atcserve serves, with its locally decoded
// reference.
type servedTrace struct {
	name  string
	addrs int64
	wire  []byte // the reference decode in the /addrs wire format
	stats atc.Stats
	bits  int64 // archive size in bits
	// decodedBytes is the chunk cache's view of the trace: one decoded
	// chunk per stored chunk, 8 bytes per address.
	decodedBytes int64
}

// serveSetup is everything one serve-remote set-up produces.
type serveSetup struct {
	traces          []*servedTrace
	origin, server  *proc
	addr, debugAddr string
	encodeNS        float64 // encode wall time per address, both archives
	decodeNS        float64 // reference decode wall time per address
}

// proc is a started subprocess.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// A benchmark killed mid-run must not leave its servers running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to exit (SIGTERM, then SIGKILL after 15 s) and
// waits until it has.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSS is the exited process's peak resident set in MiB.
func (p *proc) peakRSS() float64 {
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHTTP polls url until it answers 200 or the process exits.
func waitHTTP(p *proc, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before serving: %v", p.cmd.Path, p.err)
		default:
		}
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s did not answer within 30s", url)
}

// setupServe builds both archives into an origin directory, decodes the
// references, and starts atcstatic over the directory and atcserve
// -remote over atcstatic.
func setupServe(e *env, dir string) (*serveSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sz := e.sizes
	specs := []struct {
		name  string
		model string
		n     int
		opts  []atc.Option
		salt  uint64
	}{
		{"gcc", gccModel, sz.serveGCCAddrs, []atc.Option{atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(sz.serveGCCSegment)}, 3},
		{"mcf", mcfModel, sz.serveMCFAddrs, []atc.Option{atc.WithMode(atc.Lossy), atc.WithIntervalLen(sz.serveMCFInterval)}, 4},
	}
	s := &serveSetup{}
	var total int64
	var encode, decode time.Duration
	for _, sp := range specs {
		raw, err := workload.GenerateFiltered(sp.model, sp.n, subSeed(e.seed, sp.salt))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, sp.name+".atc")
		st, dt, err := encodeArchive(path, raw, sp.opts)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", path, err)
		}
		encode += dt
		// The reference decode runs three times; the median is the
		// set-up's decode time.
		var ref []uint64
		var decs []float64
		for i := 0; i < 3; i++ {
			ref = nil
			var dt time.Duration
			if ref, dt, err = decodeArchive(path); err != nil {
				return nil, fmt.Errorf("decode %s: %w", path, err)
			}
			decs = append(decs, float64(dt.Nanoseconds()))
		}
		decode += time.Duration(median(decs))
		if st.Mode == atc.Lossless {
			err = checkAddrs("reference decode "+sp.name, raw, ref, 0)
		} else {
			err = checkLossyShape(raw, ref)
		}
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		chunkLen := int64(sz.serveMCFInterval)
		if st.Mode == atc.Lossless {
			chunkLen = int64(sz.serveGCCSegment)
		}
		s.traces = append(s.traces, &servedTrace{
			name: sp.name, addrs: int64(len(raw)), wire: wireBytes(ref), stats: st,
			bits: fi.Size() * 8, decodedBytes: min(st.Chunks*chunkLen, int64(len(raw))) * 8,
		})
		total += int64(len(raw))
	}
	s.encodeNS = float64(encode.Nanoseconds()) / float64(total)
	s.decodeNS = float64(decode.Nanoseconds()) / float64(total)

	originAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if s.origin, err = startProc(filepath.Join(e.binDir, "atcstatic"), "-addr", originAddr, dir); err != nil {
		return nil, err
	}
	if err := waitHTTP(s.origin, "http://"+originAddr+"/gcc.atc"); err != nil {
		s.stop()
		return nil, err
	}
	if s.addr, err = freeAddr(); err != nil {
		s.stop()
		return nil, err
	}
	if s.debugAddr, err = freeAddr(); err != nil {
		s.stop()
		return nil, err
	}
	args := []string{"-addr", s.addr, "-debug-addr", s.debugAddr,
		"-cache-bytes", strconv.FormatInt(sz.serveCacheBytes, 10),
		"-remote-blocks", strconv.Itoa(serveRemoteBlocks)}
	for _, t := range s.traces {
		args = append(args, "-remote", "http://"+originAddr+"/"+t.name+".atc")
	}
	if s.server, err = startProc(filepath.Join(e.binDir, "atcserve"), args...); err != nil {
		s.stop()
		return nil, err
	}
	if err := waitHTTP(s.server, "http://"+s.addr+"/traces"); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop ends both servers, atcserve first, and waits for them.
func (s *serveSetup) stop() {
	s.server.stop()
	s.origin.stop()
}

// request is one scheduled /addrs request.
type request struct {
	w          window
	ranged     bool
	start, end int64 // inclusive byte range when ranged
	traced     bool
}

// outcome is what the load generator measured for one request.
type outcome struct {
	latency  time.Duration // completion minus scheduled send time
	late     time.Duration // actual send minus scheduled send time
	client   time.Duration // completion minus actual send
	stages   [6]time.Duration
	hasTrace bool
	err      error
}

// stageNames are the ATC-Trace header stages, in header order.
var stageNames = []string{"wait", "index", "fetch", "decompress", "translate", "deliver"}

// runServe measures serve-remote: an open-loop, Zipf-skewed stream of
// /addrs windows over both traces at a fixed rate, every response checked
// byte for byte against the locally decoded reference.
func runServe(e *env, rep *report) error {
	if e.binDir == "" {
		return errors.New("serve-remote needs -bin with the atcserve and atcstatic binaries")
	}
	var setupTimes, encNS, decNS []float64
	var s *serveSetup
	for i := 0; i < max(e.sizes.serveSetups, 1); i++ {
		if s != nil {
			s.stop()
		}
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		s, err = setupServe(e, filepath.Join(e.workDir, fmt.Sprintf("origin%d", i)))
		if err != nil {
			return fmt.Errorf("serve set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		encNS = append(encNS, s.encodeNS)
		decNS = append(decNS, s.decodeNS)
	}
	defer s.stop()

	var totals []int64
	var bits, addrs, decoded int64
	for _, t := range s.traces {
		totals = append(totals, t.addrs)
		bits += t.bits
		addrs += t.addrs
		decoded += t.decodedBytes
		share := 0.0
		if t.stats.Intervals > 0 && t.stats.Mode == atc.Lossy {
			share = float64(t.stats.Imitations) / float64(t.stats.Intervals)
		}
		rep.note("served %s: %d addrs, %v, %d chunks, imitation share %.3f, decoded chunk bytes %d",
			t.name, t.addrs, t.stats.Mode, t.stats.Chunks, share, t.decodedBytes)
	}
	rep.note("segment=%d addrs, interval=%d addrs, cache budget %d B vs decoded working set %d B, window=%d addrs, rate=%g/s, range share %g",
		e.sizes.serveGCCSegment, e.sizes.serveMCFInterval, e.sizes.serveCacheBytes, decoded, e.sizes.window, e.sizes.serveRate, rangeShare)

	gen := newWindowGen(subSeed(e.seed, 5), totals, e.sizes.window, true)
	newRequests := func(n int) []request {
		reqs := make([]request, n)
		for i := range reqs {
			r := request{w: gen.next()}
			if gen.rng.Float64() < rangeShare {
				r.ranged = true
				r.start, r.end = gen.byteRange()
			} else {
				// A traced response ignores Range, so only whole-window
				// requests carry ?trace=1.
				r.traced = e.traced
			}
			reqs[i] = r
		}
		return reqs
	}
	lg := &loadgen{base: "http://" + s.addr, traces: s.traces, conns: runtime.NumCPU()}
	defer lg.close()
	rate := e.sizes.serveRate
	warm := newRequests(int(rate * e.seconds * 0.1))
	for _, o := range lg.run(warm, rate) {
		rep.op(o.err)
	}
	before, err := scrape("http://" + s.debugAddr + "/metrics")
	if err != nil {
		return err
	}
	measured := newRequests(max(int(rate*e.seconds*0.9), 1))
	outs := lg.run(measured, rate)
	after, err := scrape("http://" + s.debugAddr + "/metrics")
	if err != nil {
		return err
	}
	var lat []float64
	for _, o := range outs {
		rep.op(o.err)
		if o.err == nil {
			lat = append(lat, float64(o.latency.Nanoseconds())/1e6)
		}
	}
	s.server.stop()
	rss := s.server.peakRSS()

	if e.traced {
		serveLayers(rep, outs, before, after, float64(len(measured)))
		setZeros(rep, batchLayerMetrics)
	} else {
		rep.set("setup_s", "s", median(setupTimes))
		rep.set("bits_per_addr", "bits", float64(bits)/float64(addrs))
		rep.set("encode_ns_per_addr", "ns", median(encNS))
		rep.set("decode_ns_per_addr", "ns", median(decNS))
		setLatency(rep, lat, 3, "open-loop /addrs through atcserve -remote, timed from each request's scheduled send")
		rep.set("peak_rss_mb", "MiB", rss)
	}
	rep.note("set-ups: %d (s min %.3f, max %.3f)", len(setupTimes), slices.Min(setupTimes), slices.Max(setupTimes))
	rep.note("requests: warm-up %d, measured %d at %g/s over %d connections; throttled %g",
		len(warm), len(measured), rate, lg.conns, after.sum("atc_http_throttled_total")-before.sum("atc_http_throttled_total"))
	if len(lat) > 0 {
		var late []float64
		for _, o := range outs {
			late = append(late, float64(o.late.Nanoseconds())/1e6)
		}
		sort.Float64s(late)
		rep.note("load generator lateness p50 %.3f ms, p99 %.3f ms", percentile(late, 0.5), percentile(late, 0.99))
	}
	return nil
}

// loadgen sends scheduled requests over at most conns connections.
type loadgen struct {
	base    string
	traces  []*servedTrace
	conns   int
	clients []*http.Client
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs open loop: request i is due at start + i/rate whatever
// happened to earlier ones. conns workers each hold one keep-alive
// connection and take the next request in order, sleeping until it is
// due; a request whose worker is still busy goes out late, and its
// latency, timed from the due time, includes that wait.
func (lg *loadgen) run(reqs []request, rate float64) []outcome {
	if lg.clients == nil {
		for i := 0; i < lg.conns; i++ {
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			lg.clients = append(lg.clients, &http.Client{Transport: tr, Timeout: 10 * time.Second})
		}
	}
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for _, c := range lg.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i] = lg.do(c, reqs[i], due)
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// do sends one request and checks its body against the reference.
func (lg *loadgen) do(c *http.Client, r request, due time.Time) outcome {
	t := lg.traces[r.w.trace]
	url := fmt.Sprintf("%s/traces/%s/addrs?from=%d&to=%d", lg.base, t.name, r.w.from, r.w.to)
	if r.traced {
		url += "&trace=1"
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return outcome{err: err}
	}
	want, status := t.wire[r.w.from*8:r.w.to*8], http.StatusOK
	if r.ranged {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r.start, r.end))
		want, status = want[r.start:r.end+1], http.StatusPartialContent
	}
	sent := time.Now()
	o := outcome{late: sent.Sub(due)}
	resp, err := c.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	o.latency, o.client = done.Sub(due), done.Sub(sent)
	what := fmt.Sprintf("GET %s", url)
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s: %w", what, err)
	case resp.StatusCode != status:
		o.err = fmt.Errorf("%s: status %d, want %d", what, resp.StatusCode, status)
	default:
		o.err = checkBytes(what, want, body)
	}
	if h := resp.Header.Get("Atc-Trace"); h != "" && o.err == nil {
		o.stages, o.hasTrace = parseTraceHeader(h)
	}
	return o
}

// parseTraceHeader reads the stage durations of an ATC-Trace header:
// "wait=12µs index=3µs fetch=1.2ms ... chunks=3 hits=1".
func parseTraceHeader(h string) ([6]time.Duration, bool) {
	var st [6]time.Duration
	found := 0
	for _, f := range strings.Fields(h) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		for i, name := range stageNames {
			if k == name {
				d, err := time.ParseDuration(v)
				if err != nil {
					return st, false
				}
				st[i] = d
				found++
			}
		}
	}
	return st, found == len(stageNames)
}

// metrics is one /metrics scrape: every sample keyed by its series.
type metrics map[string]float64

func scrape(url string) (metrics, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// sum adds every series of a metric family; series narrows to the ones
// whose labels contain it.
func (m metrics) sum(name string, series ...string) float64 {
	total := 0.0
	for k, v := range m {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, s := range series {
			ok = ok && strings.Contains(labels, s)
		}
		if ok {
			total += v
		}
	}
	return total
}
