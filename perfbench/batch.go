package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"atc"
	"atc/internal/workload"
)

// batchSpec is one batch workload: a model, how many independent traces
// of what length it generates, and the writer options.
type batchSpec struct {
	model     string
	traces    int
	addrs     int // per trace
	lossy     bool
	segment   int // lossless segment length
	interval  int // lossy interval length L
	writeOpts []atc.Option
}

func batchSpecFor(e *env) batchSpec {
	if e.workload == "lossy-mcf" {
		return batchSpec{
			model: mcfModel, traces: e.sizes.mcfTraces, addrs: e.sizes.mcfAddrs, lossy: true, interval: e.sizes.mcfInterval,
			writeOpts: []atc.Option{atc.WithMode(atc.Lossy), atc.WithIntervalLen(e.sizes.mcfInterval)},
		}
	}
	return batchSpec{
		model: gccModel, traces: 1, addrs: e.sizes.gccAddrs, segment: e.sizes.gccSegment,
		writeOpts: []atc.Option{atc.WithMode(atc.Lossless), atc.WithSegmentAddrs(e.sizes.gccSegment)},
	}
}

// generateTrace makes trace k of the workload from the seed and returns
// it with the generation wall time.
func generateTrace(e *env, spec batchSpec, k int) ([]uint64, time.Duration, error) {
	start := time.Now()
	raw, err := workload.GenerateFiltered(spec.model, spec.addrs, subSeed(e.seed, uint64(10+k)))
	return raw, time.Since(start), err
}

// generate makes every trace of the workload and returns them with the
// generation wall time.
func generate(e *env, spec batchSpec) ([][]uint64, time.Duration, error) {
	var raws [][]uint64
	var took time.Duration
	for k := 0; k < spec.traces; k++ {
		raw, dt, err := generateTrace(e, spec, k)
		if err != nil {
			return nil, 0, err
		}
		raws = append(raws, raw)
		took += dt
	}
	return raws, took, nil
}

// regenerate repeats the set-up: it generates every trace again, one at a
// time so at most one copy is alive, checks it equals raws, and returns
// the generation wall time (comparisons excluded).
func regenerate(e *env, spec batchSpec, raws [][]uint64) (time.Duration, error) {
	var took time.Duration
	for k := range raws {
		raw, dt, err := generateTrace(e, spec, k)
		if err == nil {
			err = checkAddrs(fmt.Sprintf("set-up is not deterministic: trace %d", k), raws[k], raw, 0)
		}
		if err != nil {
			return 0, err
		}
		took += dt
	}
	return took, nil
}

// encodeArchive compresses addrs into a fresh archive at path with the
// writer's default worker count, returning the writer's stats and the
// CodeSlice+Close wall time.
func encodeArchive(path string, addrs []uint64, opts []atc.Option) (atc.Stats, time.Duration, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return atc.Stats{}, 0, err
	}
	start := time.Now()
	w, err := atc.CreateArchive(path, opts...)
	if err != nil {
		return atc.Stats{}, 0, err
	}
	if err := w.CodeSlice(addrs); err != nil {
		w.Close()
		return atc.Stats{}, 0, err
	}
	if err := w.Close(); err != nil {
		return atc.Stats{}, 0, err
	}
	return w.Stats(), time.Since(start), nil
}

// decodeArchive decodes a whole archive front to back.
func decodeArchive(path string, opts ...atc.ReadOption) ([]uint64, time.Duration, error) {
	start := time.Now()
	r, err := atc.NewReader(path, opts...)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	out, err := r.DecodeAll()
	return out, time.Since(start), err
}

// archivePaths names one archive per trace in dir.
func archivePaths(dir, prefix string, n int) []string {
	var paths []string
	for k := 0; k < n; k++ {
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("%s%d.atc", prefix, k)))
	}
	return paths
}

// addStats sums writer stats over traces.
func addStats(a, b atc.Stats) atc.Stats {
	a.Mode = b.Mode
	a.TotalAddrs += b.TotalAddrs
	a.Intervals += b.Intervals
	a.Chunks += b.Chunks
	a.Imitations += b.Imitations
	return a
}

// runBatch measures lossless-gcc or lossy-mcf: repeated set-ups, encode
// passes into on-disk archives, front-to-back decode passes and
// random-access windows on fresh Readers, every output checked against
// the raw trace (lossless) or the first decode (lossy). Every round
// repeats the set-up, so setup_s is a median over the whole run rather
// than over a burst at its start. Every timed pass and set-up starts
// after debug.FreeOSMemory, so each pays the same page-fault cost instead
// of whatever the background scavenger left.
func runBatch(e *env, rep *report) error {
	spec := batchSpecFor(e)
	debug.FreeOSMemory()
	raws, setup, err := generate(e, spec)
	if err != nil {
		return err
	}
	if e.traced {
		return runBatchTraced(e, rep, spec, raws)
	}
	setups := []float64{setup.Seconds()}
	paths := archivePaths(e.workDir, "trace", len(raws))
	var totals []int64
	var n float64
	for _, raw := range raws {
		totals = append(totals, int64(len(raw)))
		n += float64(len(raw))
	}
	gen := newWindowGen(subSeed(e.seed, 2), totals, e.sizes.batchWindow, false)

	refs := make([][]uint64, len(raws)) // what every decode must return
	if !spec.lossy {
		copy(refs, raws)
	}
	var encNS, decNS, lat []float64
	var stats atc.Stats
	var bits float64
	// Windows run in sets of windowsPerReader between rounds, keeping pace
	// with the passes, so they sample the whole run rather than its end.
	windows := func(upTo int) error {
		for len(lat) < upTo && len(lat) < e.sizes.batchWindows {
			l, err := windowPass(paths, refs, gen, e.sizes.windowsPerReader, rep)
			if err != nil {
				return err
			}
			if len(l) == 0 {
				return fmt.Errorf("every window of a set failed")
			}
			lat = append(lat, l...)
		}
		return nil
	}
	start := time.Now()
	end := e.deadline(start, 1)
	for round := 0; round < 3 || time.Now().Before(end); round++ {
		var st atc.Stats
		var enc, dec time.Duration
		var b float64
		ok := true
		debug.FreeOSMemory()
		setup, err := regenerate(e, spec, raws)
		rep.op(err)
		if err == nil {
			setups = append(setups, setup.Seconds())
		}
		debug.FreeOSMemory()
		for k, raw := range raws {
			s, dt, err := encodeArchive(paths[k], raw, spec.writeOpts)
			rep.op(err)
			if err != nil {
				ok = false
				continue
			}
			st, enc = addStats(st, s), enc+dt
			bpa, err := atc.BitsPerAddress(paths[k], int64(len(raw)))
			if err != nil {
				return err
			}
			b += bpa * float64(len(raw))
		}
		if !ok {
			continue
		}
		encNS = append(encNS, float64(enc.Nanoseconds())/n)
		if round == 0 {
			stats, bits = st, b
		} else if st != stats || b != bits {
			rep.op(fmt.Errorf("encode pass %d: stats %+v, %.0f bits differ from the first pass's %+v, %.0f", round, st, b, stats, bits))
		}

		debug.FreeOSMemory()
		for k, raw := range raws {
			out, dt, err := decodeArchive(paths[k])
			if err == nil && refs[k] == nil {
				refs[k] = out // the first lossy decode is the reference
				err = checkLossyShape(raw, out)
			}
			if err == nil {
				err = checkAddrs("decode", refs[k], out, 0)
			}
			rep.op(err)
			if err != nil {
				ok = false
			}
			dec += dt
		}
		if ok {
			decNS = append(decNS, float64(dec.Nanoseconds())/n)
		}
		if err := windows(int(float64(e.sizes.batchWindows) * time.Since(start).Seconds() / e.seconds)); err != nil {
			return err
		}
	}
	// The rest of the fixed window count, so the tail figure is always p99.
	if err := windows(e.sizes.batchWindows); err != nil {
		return err
	}
	if len(encNS) == 0 || len(decNS) == 0 {
		return fmt.Errorf("no encode or decode pass succeeded")
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("bits_per_addr", "bits", bits/n)
	rep.set("encode_ns_per_addr", "ns", median(encNS))
	rep.set("decode_ns_per_addr", "ns", median(decNS))
	setLatency(rep, lat, 1, "random-access ReadAddrsAt windows, a fresh Reader per archive every "+fmt.Sprint(e.sizes.windowsPerReader)+" windows")
	rep.set("peak_rss_mb", "MiB", selfPeakRSS())
	rep.note("passes: set-up=%d (s min %.3f, max %.3f) encode=%d (ns/addr min %.1f, max %.1f) decode=%d (min %.1f, max %.1f) windows=%d",
		len(setups), slices.Min(setups), slices.Max(setups),
		len(encNS), slices.Min(encNS), slices.Max(encNS), len(decNS), slices.Min(decNS), slices.Max(decNS), len(lat))
	rep.note("%s: %d traces of %d addrs, stats %+v", spec.model, len(raws), spec.addrs, stats)
	if spec.lossy {
		rep.note("interval L=%d, imitation share %.3f", spec.interval, float64(stats.Imitations)/float64(stats.Intervals))
		mre, err := meanMissRatioError(raws, refs)
		if err != nil {
			return err
		}
		rep.note("miss_ratio_error %.6f (max |exact-decoded| LRU miss ratio over the Figure 3 cache grid, mean over traces)", mre)
	} else {
		rep.note("segment=%d addrs, %d segments", spec.segment, stats.Chunks)
		rep.note("miss_ratio_error 0 (lossless decode is bit exact)")
	}
	return nil
}

// windowPass opens a fresh Reader per archive with default options and
// times k generated windows read through ReadAddrsAt into one reused
// buffer, checking each against refs.
func windowPass(paths []string, refs [][]uint64, gen *windowGen, k int, rep *report) ([]float64, error) {
	readers := make([]*atc.Reader, len(paths))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i, p := range paths {
		r, err := atc.NewReader(p)
		if err != nil {
			return nil, err
		}
		readers[i] = r
	}
	var lat []float64
	buf := make([]uint64, gen.length)
	for i := 0; i < k; i++ {
		w := gen.next()
		if refs[w.trace] == nil {
			rep.op(fmt.Errorf("no reference decode of trace %d to check windows against", w.trace))
			continue
		}
		start := time.Now()
		n, err := readers[w.trace].ReadAddrsAt(buf, w.from)
		dt := time.Since(start)
		if err == nil {
			err = checkAddrs(fmt.Sprintf("ReadAddrsAt[%d,%d) of trace %d", w.from, w.to, w.trace), refs[w.trace][w.from:w.to], buf[:n], w.from)
		}
		rep.op(err)
		if err == nil {
			lat = append(lat, float64(dt.Nanoseconds())/1e6)
		}
	}
	return lat, nil
}

// meanMissRatioError averages missRatioError over the traces.
func meanMissRatioError(raws, refs [][]uint64) (float64, error) {
	sum := 0.0
	for k := range raws {
		mre, err := missRatioError(raws[k], refs[k])
		if err != nil {
			return 0, err
		}
		sum += mre
	}
	return sum / float64(len(raws)), nil
}

// setLatency reports addrs_p50_ms and addrs_p99_ms, each the median,
// over parts consecutive slices of lat, of that slice's percentile, so
// one burst of stalls on a shared machine moves one slice's figures
// rather than the run's. When a slice holds fewer than ten values beyond
// p99 the tail is the highest percentile it supports, and a note says
// which.
func setLatency(rep *report, lat []float64, parts int, what string) {
	var p50s, tails []float64
	n := len(lat) / parts
	q := tailQuantile(n)
	for i := 0; i < parts; i++ {
		part := append([]float64(nil), lat[i*n:(i+1)*n]...)
		sort.Float64s(part)
		p50s = append(p50s, percentile(part, 0.5))
		tails = append(tails, percentile(part, q))
	}
	rep.set("addrs_p50_ms", "ms", median(p50s))
	rep.set("addrs_p99_ms", "ms", median(tails))
	rep.note("addrs latency: %s, n=%d in %d consecutive parts of %d, tail reported at p%g (per part p50 %.3g, tail %.3g)",
		what, len(lat), parts, n, q*100, p50s, tails)
}

// selfPeakRSS is this process's peak resident set in MiB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
