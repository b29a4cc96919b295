package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// sizes fixes every input size of the three workloads.
type sizes struct {
	// lossless-gcc: trace length and lossless segment length.
	gccAddrs, gccSegment int
	// lossy-mcf: number of independent traces, trace length and interval
	// length L.
	mcfTraces, mcfAddrs, mcfInterval int
	// Batch windows: windows per run and per set of fresh Readers, and
	// window lengths of the batch and serve workloads.
	batchWindows, windowsPerReader int
	batchWindow, window            int
	// serve-remote: the two served traces, the lossless segment and lossy
	// interval lengths, the atcserve chunk-cache budget in decoded bytes
	// and the open-loop request rate.
	serveGCCAddrs, serveGCCSegment  int
	serveMCFAddrs, serveMCFInterval int
	serveCacheBytes                 int64
	serveRate                       float64
	// serveSetups is how many times a serve run sets up; setup_s is the
	// median.
	serveSetups int
}

var defaultSizes = sizes{
	gccAddrs: 1 << 20, gccSegment: 128 << 10,
	mcfTraces: 8, mcfAddrs: 1 << 20, mcfInterval: 32768,
	batchWindows: 1024, windowsPerReader: 256,
	batchWindow: 128 << 10, window: 4096,
	serveGCCAddrs: 1 << 20, serveGCCSegment: 32 << 10,
	serveMCFAddrs: 2 << 20, serveMCFInterval: 32768,
	serveCacheBytes: 7 << 20,
	serveRate:       150,
	serveSetups:     5,
}

// tinySizes keep the benchmark's own tests fast.
var tinySizes = sizes{
	gccAddrs: 64 << 10, gccSegment: 16 << 10,
	mcfTraces: 2, mcfAddrs: 256 << 10, mcfInterval: 16384,
	batchWindows: 32, windowsPerReader: 16,
	batchWindow: 1024, window: 512,
	serveGCCAddrs: 64 << 10, serveGCCSegment: 8 << 10,
	serveMCFAddrs: 128 << 10, serveMCFInterval: 16384,
	serveCacheBytes: 256 << 10,
	serveRate:       100,
	serveSetups:     1,
}

// serve-remote's atcserve remote block cache per trace, in 256 KiB
// blocks, and the share of its requests that carry a byte Range.
const (
	serveRemoteBlocks = 2
	rangeShare        = 0.25
)

// Models of the paper's SPEC CPU2006 stand-ins used by the workloads.
const (
	gccModel = "403.gcc"
	mcfModel = "429.mcf"
)

// subSeed derives independent generator seeds from the run's seed.
func subSeed(seed uint64, salt uint64) uint64 {
	return seed*0x9E3779B97F4A7C15 ^ (salt+1)*0xBF58476D1CE4E5B9
}

// window is one [from, to) request over one trace.
type window struct {
	trace    int // index into the served traces
	from, to int64
}

// windowGen draws fixed-size, aligned windows over one or more traces,
// either balanced or with Zipf-skewed popularity. Balanced windows visit
// every window slot of every trace once per cycle, in an order shuffled
// per cycle, so each slot weighs the same in every run instead of by
// chance counts. Popularity rank r maps
// to window slot r*stride mod slots, a fixed scatter with stride near the
// golden ratio of the slot count, so the hot head spreads evenly over the
// trace rather than packing into its first chunks; which windows are hot
// is part of the workload's definition, while the request sequence comes
// from the seed.
type windowGen struct {
	rng    *rand.Rand
	zipf   []*rand.Zipf // nil for balanced windows
	perm   [][]int
	length int64
	cycle  []window // balanced windows left in the current cycle
}

func newWindowGen(seed uint64, totals []int64, length int, skewed bool) *windowGen {
	g := &windowGen{rng: rand.New(rand.NewPCG(seed, seed^0x5DEECE66D)), length: int64(length)}
	for _, total := range totals {
		slots := int(total / int64(length))
		if slots < 1 {
			slots = 1
		}
		g.perm = append(g.perm, scatter(slots))
		if skewed {
			g.zipf = append(g.zipf, rand.NewZipf(g.rng, 1.1, 4, uint64(slots-1)))
		}
	}
	return g
}

// scatter returns the permutation i -> i*stride mod n, stride being the
// first integer from 0.618*n up that is coprime with n.
func scatter(n int) []int {
	stride := max(int(0.618*float64(n)), 1)
	for gcd(stride, n) != 1 {
		stride++
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i * stride % n
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// next returns the next window: a skewed draw over a uniformly chosen
// trace, or the next balanced window.
func (g *windowGen) next() window {
	if g.zipf == nil {
		if len(g.cycle) == 0 {
			for t, slots := range g.perm {
				for slot := range slots {
					from := int64(slot) * g.length
					g.cycle = append(g.cycle, window{trace: t, from: from, to: from + g.length})
				}
			}
			g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
		}
		w := g.cycle[len(g.cycle)-1]
		g.cycle = g.cycle[:len(g.cycle)-1]
		return w
	}
	t := g.rng.IntN(len(g.perm))
	slot := g.perm[t][g.zipf[t].Uint64()]
	from := int64(slot) * g.length
	return window{trace: t, from: from, to: from + g.length}
}

// byteRange draws an inclusive byte range inside a window's wire bytes,
// deliberately not aligned to addresses.
func (g *windowGen) byteRange() (start, end int64) {
	n := g.length * 8
	start = g.rng.Int64N(n)
	end = start + g.rng.Int64N(n-start)
	return start, end
}

// percentile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it, or the median when even p90 is unsupported.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
