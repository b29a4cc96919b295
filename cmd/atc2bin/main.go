// Command atc2bin decompresses an ATC trace — a directory or a
// single-file .atc archive, auto-detected — to standard output as raw
// 64-bit little-endian values, mirroring the example program of the
// paper's Figure 7.
//
// Usage:
//
//	atc2bin <directory | file.atc> | cachesim -sets 4096
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
	noTranslate := flag.Bool("no-translation", false, "disable byte translation (the Figure 4 ablation)")
	readahead := flag.Int("readahead", 0, "spans decoding at once, on every path (0 selects 2; negative decodes inline, with no background goroutines)")
	archive := flag.Bool("archive", false, "require a single-file .atc archive (no directory fallback)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: atc2bin [flags] <directory | file.atc>\nwrites 64-bit LE values to stdout\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var opts []atc.ReadOption
	if *noTranslate {
		opts = append(opts, atc.WithoutTranslations())
	}
	if *readahead != 0 {
		opts = append(opts, atc.WithReadahead(*readahead))
	}
	newReader := atc.NewReader
	if *archive {
		newReader = atc.OpenArchive
	}
	r, err := newReader(flag.Arg(0), opts...)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	w := trace.NewWriter(os.Stdout)
	for {
		x, err := r.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if err := w.Write(x); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "atc2bin: %d addresses (%s, format v%d)\n",
		w.Count(), r.Mode(), r.FormatVersion())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atc2bin:", err)
	os.Exit(1)
}
