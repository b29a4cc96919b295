package experiment

import (
	"fmt"
	"io"
	"time"

	"atc/internal/bytesort"
	"atc/internal/vpc"
)

// Table1Config parameterises the Table 1 reproduction (bits per address of
// five lossless compressors over the 22-trace suite).
//
// Paper parameters: 100 M addresses per trace, small bytesort B = 1 M,
// big bytesort B = 10 M, TCgen tables 2^20 lines (232 MB). The scaled
// defaults keep the paper's ratios: B_small = N/100, B_big = N/10, and
// TCgen table bits sized to a comparable memory budget.
type Table1Config struct {
	Params        // Models default to all 22; BufferAddrs is B_big, default N/10
	SmallBuf  int // small bytesort buffer; default N/100
	TCgenBits int // VPC table bits; default sized like the big bytesort's memory
}

// Table1Row holds one trace's bits-per-address results, one per column of
// the paper's Table 1.
type Table1Row struct {
	Trace     string
	Bz2       float64 // back end alone
	Unshuffle float64 // byte-unshuffling + back end
	TCgen     float64 // VPC/TCgen-style predictor compressor
	BSSmall   float64 // bytesort, small buffer
	BSBig     float64 // bytesort, big buffer
}

// Table1Result is the full table plus configuration echo.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
	Mean   Table1Row // arithmetic mean row

	// Artifacts for Table 2: compressed blobs per trace.
	tcgBlobs map[string][]byte
	bs1Blobs map[string][]byte
	bs10Blob map[string][]byte
}

// RunTable1 generates the suite and measures every column.
func RunTable1(cfg Table1Config, tc *TraceCache) (*Table1Result, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen
	}
	if cfg.BufferAddrs <= 0 {
		cfg.BufferAddrs = max(cfg.N/10, 1)
	}
	cfg.fill(ModelNames()...)
	if cfg.SmallBuf <= 0 {
		cfg.SmallBuf = max(cfg.N/100, 1)
	}
	if cfg.TCgenBits <= 0 {
		// Match the predictor-table memory to the big bytesort's working
		// memory, as the paper does ("matches approximately the amount of
		// memory used by the big bytesort"): bytesort uses ~17 bytes per
		// buffered address, the VPC bank 88 bytes per table line.
		want := int64(cfg.BufferAddrs) * 17 / 88
		bits := 12
		for int64(1)<<uint(bits+1) <= want && bits < 20 {
			bits++
		}
		cfg.TCgenBits = bits
	}
	res := &Table1Result{
		Config:   cfg,
		tcgBlobs: map[string][]byte{},
		bs1Blobs: map[string][]byte{},
		bs10Blob: map[string][]byte{},
	}
	for _, model := range cfg.Models {
		addrs, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Trace: model}

		rawSize, err := CompressRawSize(addrs, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("table1 %s bz2: %w", model, err)
		}
		row.Bz2 = bpa(rawSize, len(addrs))

		usBlob, err := CompressBytesort(addrs, cfg.BufferAddrs, bytesort.Unshuffle, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("table1 %s unshuffle: %w", model, err)
		}
		row.Unshuffle = bpa(int64(len(usBlob)), len(addrs))

		tcgBlob, err := vpc.Compress(addrs, vpc.Config{TableBits: cfg.TCgenBits, Backend: cfg.Backend})
		if err != nil {
			return nil, fmt.Errorf("table1 %s tcgen: %w", model, err)
		}
		row.TCgen = bpa(int64(len(tcgBlob)), len(addrs))
		res.tcgBlobs[model] = tcgBlob

		bs1Blob, err := CompressBytesort(addrs, cfg.SmallBuf, bytesort.Sorted, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("table1 %s bs-small: %w", model, err)
		}
		row.BSSmall = bpa(int64(len(bs1Blob)), len(addrs))
		res.bs1Blobs[model] = bs1Blob

		bs10Blob, err := CompressBytesort(addrs, cfg.BufferAddrs, bytesort.Sorted, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("table1 %s bs-big: %w", model, err)
		}
		row.BSBig = bpa(int64(len(bs10Blob)), len(addrs))
		res.bs10Blob[model] = bs10Blob

		res.Rows = append(res.Rows, row)
	}
	n := float64(len(res.Rows))
	for _, r := range res.Rows {
		res.Mean.Bz2 += r.Bz2 / n
		res.Mean.Unshuffle += r.Unshuffle / n
		res.Mean.TCgen += r.TCgen / n
		res.Mean.BSSmall += r.BSSmall / n
		res.Mean.BSBig += r.BSBig / n
	}
	res.Mean.Trace = "arith. mean"
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 1: bits per address (smaller is better)\n")
	fmt.Fprintf(w, "  traces: %d x %d addresses, backend=%s, B_small=%d, B_big=%d, tcgen 2^%d lines\n",
		len(r.Rows), r.Config.N, r.Config.Backend, r.Config.SmallBuf, r.Config.BufferAddrs, r.Config.TCgenBits)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s\n", "trace", "bz2", "us", "tcg", "bs1", "bs10")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			row.Trace, row.Bz2, row.Unshuffle, row.TCgen, row.BSSmall, row.BSBig)
	}
	fmt.Fprintf(w, "%-16s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
		r.Mean.Trace, r.Mean.Bz2, r.Mean.Unshuffle, r.Mean.TCgen, r.Mean.BSSmall, r.Mean.BSBig)
}

// Table2Result reports decompression throughput, one row per compressor,
// in the shape of the paper's Table 2.
type Table2Result struct {
	Config Table1Config
	Rows   []Table2Row
}

// Table2Row is one decompressor's totals over the suite.
type Table2Row struct {
	Name           string
	TotalTime      time.Duration
	BackendTime    time.Duration // time spent in the byte-level back end alone
	AddrsPerSecond float64
}

// RunTable2 measures decompression speed using the artifacts of a Table 1
// run (which it performs if not supplied).
func RunTable2(cfg Table1Config, t1 *Table1Result, tc *TraceCache) (*Table2Result, error) {
	if t1 == nil {
		var err error
		t1, err = RunTable1(cfg, tc)
		if err != nil {
			return nil, err
		}
	}
	res := &Table2Result{Config: t1.Config}
	totalAddrs := int64(len(t1.Config.Models) * t1.Config.N)

	// TCgen-style decompression.
	var tcgTotal, tcgBackend time.Duration
	for _, model := range t1.Config.Models {
		blob := t1.tcgBlobs[model]
		start := time.Now()
		if _, err := vpc.Decompress(blob); err != nil {
			return nil, fmt.Errorf("table2 tcg %s: %w", model, err)
		}
		tcgTotal += time.Since(start)
		start = time.Now()
		if _, _, err := vpc.DecompressStreams(blob); err != nil {
			return nil, err
		}
		tcgBackend += time.Since(start)
	}
	res.Rows = append(res.Rows, Table2Row{
		Name: "TCgen", TotalTime: tcgTotal, BackendTime: tcgBackend,
		AddrsPerSecond: float64(totalAddrs) / tcgTotal.Seconds(),
	})

	for _, v := range []struct {
		name  string
		blobs map[string][]byte
	}{
		{"bytesort small", t1.bs1Blobs},
		{"bytesort big", t1.bs10Blob},
	} {
		var total, backend time.Duration
		for _, model := range t1.Config.Models {
			blob := v.blobs[model]
			start := time.Now()
			addrs, err := DecompressBytesort(blob, bytesort.Sorted, t1.Config.Backend)
			if err != nil {
				return nil, fmt.Errorf("table2 %s %s: %w", v.name, model, err)
			}
			if len(addrs) != t1.Config.N {
				return nil, fmt.Errorf("table2 %s %s: decoded %d addrs", v.name, model, len(addrs))
			}
			total += time.Since(start)
			start = time.Now()
			if _, err := DrainBackend(blob, t1.Config.Backend); err != nil {
				return nil, err
			}
			backend += time.Since(start)
		}
		res.Rows = append(res.Rows, Table2Row{
			Name: v.name, TotalTime: total, BackendTime: backend,
			AddrsPerSecond: float64(totalAddrs) / total.Seconds(),
		})
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: decompression of the %d traces\n", len(r.Config.Models))
	fmt.Fprintf(w, "%-16s %14s %16s %16s\n", "decompressor", "total time", "backend contrib", "addr/second")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %14s %16s %13.2e\n",
			row.Name, row.TotalTime.Round(time.Millisecond),
			row.BackendTime.Round(time.Millisecond), row.AddrsPerSecond)
	}
}
