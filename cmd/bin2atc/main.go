// Command bin2atc compresses a raw trace of 64-bit little-endian values
// from standard input into an ATC trace — a directory, or a single-file
// .atc archive with -archive — mirroring the example program of the
// paper's Figure 6.
//
// Usage:
//
//	tracegen -model 429.mcf -n 1000000 | bin2atc [flags] <directory>
//	tracegen -model 429.mcf -n 1000000 | bin2atc -archive [flags] <file.atc>
//
// The default mode is lossy ('k' in the paper); pass -lossless for the
// paper's 'c' mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"atc"
	"atc/internal/trace"
)

func main() {
	lossless := flag.Bool("lossless", false, "use lossless mode (paper mode 'c'; default is lossy 'k')")
	backend := flag.String("backend", "bsc", "byte-level back end: bsc, flate, store")
	intervalLen := flag.Int("interval", 0, "lossy interval length L in addresses (default 10,000,000)")
	bufAddrs := flag.Int("buffer", 0, "bytesort buffer B in addresses (default 1,000,000)")
	segment := flag.Int("segment", 0, "lossless segment length in addresses (default 16Mi; -1 = legacy single chunk)")
	epsilon := flag.Float64("epsilon", 0, "lossy matching threshold (default 0.1)")
	workers := flag.Int("workers", 0, "chunk-compression workers (default GOMAXPROCS); lossy intervals are classified on one more goroutine at any count, and 1 hands each chunk to one worker unbuffered")
	archive := flag.Bool("archive", false, "write a single-file .atc archive instead of a directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bin2atc [flags] <directory | -archive file.atc>\nreads 64-bit LE values from stdin\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)

	opts := []atc.Option{atc.WithBackend(*backend)}
	if *lossless {
		opts = append(opts, atc.WithMode(atc.Lossless))
	} else {
		opts = append(opts, atc.WithMode(atc.Lossy))
	}
	if *intervalLen > 0 {
		opts = append(opts, atc.WithIntervalLen(*intervalLen))
	}
	if *bufAddrs > 0 {
		opts = append(opts, atc.WithBufferAddrs(*bufAddrs))
	}
	if *segment != 0 {
		opts = append(opts, atc.WithSegmentAddrs(*segment))
	}
	if *epsilon > 0 {
		opts = append(opts, atc.WithEpsilon(*epsilon))
	}
	if *workers > 0 {
		opts = append(opts, atc.WithWorkers(*workers))
	}

	newWriter := atc.NewWriter
	if *archive {
		newWriter = atc.CreateArchive
	}
	w, err := newWriter(dir, opts...)
	if err != nil {
		fatal(err)
	}
	r := trace.NewReader(os.Stdin)
	for {
		x, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(fmt.Errorf("reading stdin: %w", err))
		}
		if err := w.Code(x); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	s := w.Stats()
	fmt.Fprintf(os.Stderr, "bin2atc: %d addresses, %d chunks, %d imitations -> %s\n",
		s.TotalAddrs, s.Chunks, s.Imitations, dir)
	if bpa, err := atc.BitsPerAddress(dir, s.TotalAddrs); err == nil && s.TotalAddrs > 0 {
		fmt.Fprintf(os.Stderr, "bin2atc: %.3f bits per address\n", bpa)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bin2atc:", err)
	os.Exit(1)
}
