// Package experiment regenerates every table and figure of the paper's
// evaluation from the synthetic workload suite. It is the shared harness
// behind cmd/atcbench and the module's top-level benchmarks: each
// experiment has a Run function returning a structured result and a Render
// method printing rows shaped like the paper's.
//
// Scaling: the paper's traces are 100 M – 1 G addresses; the defaults here
// are 50–500× smaller so the full suite runs in minutes, with every knob
// exported so paper-scale runs remain possible. cmd/atcbench runs them
// from the command line (see its row in the README's "Command-line tools"
// table).
package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"atc/internal/bytesort"
	"atc/internal/core"
	"atc/internal/trace"
	"atc/internal/workload"
	"atc/internal/xcompress"
)

// DefaultTraceLen is the scaled stand-in for the paper's 100 M-address
// traces (Table 1).
const DefaultTraceLen = 500_000

// DefaultSeed makes all experiments reproducible by default.
const DefaultSeed = 2009 // ISPASS 2009

// Workers is the chunk-compression worker count every experiment passes to
// core.Options.Workers (0 = the library default, runtime.GOMAXPROCS(0);
// 1 = one compression worker). Compressed output is byte-identical for any
// value, so it only affects wall-clock time. Set it before running
// experiments — cmd/atcbench exposes it as -workers.
var Workers int

// SegmentAddrs overrides the lossless segment length for the segment-size
// sweep (RunSegmentSweep), the only experiment that compresses with the
// lossless core pipeline: when non-zero, the sweep compares the
// single-chunk baseline against exactly this segment size instead of its
// default size ladder (negative = the legacy v1 single-chunk layout, a
// no-op comparison). All other experiments compress lossily and ignore it.
// cmd/atcbench exposes it as -segment.
var SegmentAddrs int

// Archive routes every experiment's compressed traces into single-file
// .atc archives instead of directories, exercising the archive store end
// to end; BPA figures then include the archive header and table of
// contents, so a large divergence from the directory numbers would flag
// container overhead. cmd/atcbench exposes it as -archive.
var Archive bool

// tempTrace returns a fresh destination path for one compressed trace —
// a temp directory or, when Archive is set, an empty temp .atc file that
// the archive writer adopts. os.RemoveAll on the returned path cleans up
// either layout.
func tempTrace(pattern string) (string, error) {
	if !Archive {
		return os.MkdirTemp("", pattern)
	}
	f, err := os.CreateTemp("", pattern+"-*.atc")
	if err != nil {
		return "", err
	}
	return f.Name(), f.Close()
}

// writeTrace compresses addrs at path in the layout tempTrace chose for
// it, threading the experiment-wide Archive knob into opts.
func writeTrace(path string, addrs []uint64, opts core.Options) (core.Stats, error) {
	opts.Archive = Archive
	return core.WriteTrace(path, addrs, opts)
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
func (tc *TraceCache) Get(model string, n int, seed uint64) ([]uint64, error) {
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
