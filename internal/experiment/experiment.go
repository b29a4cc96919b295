// Package experiment regenerates every table and figure of the paper's
// evaluation from the synthetic workload suite. It is the shared harness
// behind cmd/atcbench and the module's top-level benchmarks: each
// experiment has a Run function returning a structured result and a Render
// method printing rows shaped like the paper's.
//
// Every experiment's config embeds Params, the knobs all experiments share
// (models, trace length, interval length, buffer, ε, back end, seed and
// workers); a zero field takes that experiment's default. Every ATC
// measurement comes from one compression into memory, which yields the
// bits per address and the compressor's stats, and decodes on demand.
//
// Scaling: the paper's traces are 100 M – 1 G addresses; the defaults here
// are 50–500× smaller so the full suite runs in minutes, with every knob
// exported so paper-scale runs remain possible. cmd/atcbench runs them
// from the command line (see its row in the README's "Command-line tools"
// table); its tiny-scale output is pinned by a golden file in its testdata.
package experiment

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"atc/internal/bytesort"
	"atc/internal/core"
	"atc/internal/store"
	"atc/internal/trace"
	"atc/internal/workload"
	"atc/internal/xcompress"
)

// DefaultTraceLen is the scaled stand-in for the paper's 100 M-address
// traces (Table 1).
const DefaultTraceLen = 500_000

// DefaultSeed makes all experiments reproducible by default.
const DefaultSeed = 2009 // ISPASS 2009

// Params are the knobs every experiment shares. A zero field takes the
// default listed here; each config says where its defaults differ, and
// which fields its experiment ignores.
type Params struct {
	// Models are the traces of a multi-model experiment. A single-model
	// experiment runs Models[0] when Models names exactly one model, and
	// its own default model otherwise.
	Models      []string
	N           int     // addresses per trace; default DefaultTraceLen
	IntervalLen int     // lossy interval length L; default N/20
	BufferAddrs int     // bytesort buffer B; default IntervalLen/10
	Epsilon     float64 // phase-match threshold ε; default 0.1
	Backend     string  // byte-level back end; default "bsc"
	Seed        uint64  // workload seed; default DefaultSeed
	// Workers is passed to core.Options.Workers (0 = GOMAXPROCS).
	// Compressed output is byte-identical for any value, so it only
	// changes wall-clock time.
	Workers int
}

// fill sets every zero field of p to its shared default. An experiment
// whose defaults differ presets those fields before calling fill. models
// are the experiment's default traces; a single-model experiment passes
// exactly one.
func (p *Params) fill(models ...string) {
	if len(p.Models) == 0 || len(models) == 1 && len(p.Models) != 1 {
		p.Models = models
	}
	if p.N <= 0 {
		p.N = DefaultTraceLen
	}
	if p.IntervalLen <= 0 {
		// The paper uses L = N/100 at N = 1 G (L = 10 M). At laptop scale
		// that ratio would push L below the sorted-histogram sampling-noise
		// floor (E[d] ≈ 18/sqrt(L), which must stay well under ε): default
		// to N/20 instead. Paper-scale runs can pass IntervalLen = N/100.
		p.IntervalLen = max(p.N/20, 1)
	}
	if p.BufferAddrs <= 0 {
		p.BufferAddrs = max(p.IntervalLen/10, 1)
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 0.1
	}
	if p.Backend == "" {
		p.Backend = "bsc"
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
}

// lossy returns the core options of an ATC lossy compression under p.
func (p *Params) lossy() core.Options {
	return core.Options{
		Workers:     p.Workers,
		Mode:        core.Lossy,
		Backend:     p.Backend,
		IntervalLen: p.IntervalLen,
		BufferAddrs: p.BufferAddrs,
		Epsilon:     p.Epsilon,
	}
}

// trip is one compression of a trace, held in memory.
type trip struct {
	st    *store.MemStore
	size  int64 // compressed bytes: the summed blob sizes
	bpa   float64
	stats core.Stats
}

// compress compresses addrs into a store.MemStore under opts. The size
// equals the summed file sizes of the same trace written to a directory.
func compress(addrs []uint64, opts core.Options) (*trip, error) {
	st := store.NewMem()
	opts.Store = st
	stats, err := core.WriteTrace("", addrs, opts)
	if err != nil {
		return nil, err
	}
	size, err := st.Size()
	if err != nil {
		return nil, err
	}
	return &trip{st: st, size: size, bpa: bpa(size, len(addrs)), stats: stats}, nil
}

// decode decodes the whole trace; ignoreTranslations skips byte
// translation (the Figure 4 ablation).
func (t *trip) decode(ignoreTranslations bool) ([]uint64, error) {
	d, err := core.Open("", core.DecodeOptions{Store: t.st, IgnoreTranslations: ignoreTranslations})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.DecodeAll()
}

// TraceCache memoises generated traces so multi-column experiments
// generate each workload once. It is safe for concurrent use.
type TraceCache struct {
	mu sync.Mutex
	m  map[string][]uint64
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: map[string][]uint64{}}
}

// Get returns the filtered trace for a model, generating it on first use.
// A nil cache generates the trace afresh on every call.
func (tc *TraceCache) Get(model string, n int, seed uint64) ([]uint64, error) {
	if tc == nil {
		return workload.GenerateFiltered(model, n, seed)
	}
	key := fmt.Sprintf("%s/%d/%d", model, n, seed)
	tc.mu.Lock()
	if addrs, ok := tc.m[key]; ok {
		tc.mu.Unlock()
		return addrs, nil
	}
	tc.mu.Unlock()
	addrs, err := workload.GenerateFiltered(model, n, seed)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	tc.m[key] = addrs
	tc.mu.Unlock()
	return addrs, nil
}

// ModelNames lists the full 22-model suite in paper order.
func ModelNames() []string {
	models := workload.Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// countingWriter counts compressed output bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// bpa converts a compressed size to bits per address.
func bpa(bytes int64, addrs int) float64 {
	if addrs == 0 {
		return 0
	}
	return float64(bytes*8) / float64(addrs)
}

// CompressRawSize compresses the little-endian encoding of a trace with a
// back end and returns the compressed size (the Table 1 "bz2" column).
func CompressRawSize(addrs []uint64, backend string) (int64, error) {
	b, err := xcompress.Lookup(backend)
	if err != nil {
		return 0, err
	}
	var cw countingWriter
	w, err := b.NewWriter(&cw)
	if err != nil {
		return 0, err
	}
	tw := trace.NewWriter(w)
	if err := tw.WriteSlice(addrs); err != nil {
		return 0, err
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// CompressBytesort compresses a trace through the bytesort (or unshuffle)
// transformation into a back end and returns the compressed bytes.
func CompressBytesort(addrs []uint64, bufAddrs int, mode bytesort.Mode, backend string) ([]byte, error) {
	b, err := xcompress.Lookup(backend)
	if err != nil {
		return nil, err
	}
	var sink bytes.Buffer
	w, err := b.NewWriter(&sink)
	if err != nil {
		return nil, err
	}
	enc := bytesort.NewEncoderMode(w, bufAddrs, mode)
	if err := enc.WriteSlice(addrs); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return sink.Bytes(), nil
}

// DecompressBytesort decodes a CompressBytesort stream.
func DecompressBytesort(data []byte, mode bytesort.Mode, backend string) ([]uint64, error) {
	b, err := xcompress.Lookup(backend)
	if err != nil {
		return nil, err
	}
	r, err := b.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return bytesort.NewDecoderMode(r, mode).ReadAll()
}

// DrainBackend runs only the back-end decompression of a stream, returning
// the number of decompressed bytes (for back-end cost attribution).
func DrainBackend(data []byte, backend string) (int64, error) {
	b, err := xcompress.Lookup(backend)
	if err != nil {
		return 0, err
	}
	r, err := b.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	return io.Copy(io.Discard, r)
}

// Footprint counts distinct addresses in a trace.
func Footprint(addrs []uint64) int {
	seen := make(map[uint64]struct{}, len(addrs)/4+16)
	for _, a := range addrs {
		seen[a] = struct{}{}
	}
	return len(seen)
}

// shortName trims "400.perlbench" to "400" for paper-style rows.
func shortName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
