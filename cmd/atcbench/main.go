// Command atcbench regenerates the paper's tables and figures from the
// synthetic workload suite. Each experiment prints rows shaped like the
// paper's and is selected by the flag named after its paper counterpart
// (see the atcbench row of the README's "Command-line tools" table).
//
// Usage:
//
//	atcbench -table1                 # Table 1 at scaled defaults
//	atcbench -table1 -n 100000000    # Table 1 at paper scale (slow)
//	atcbench -all                    # everything
//	atcbench -fig3 -models 470.lbm,429.mcf
//
// Every experiment honours -seed and -workers. -n sets the trace length of
// every experiment but -longtrace, which sweeps its own lengths. -models
// picks the traces of the multi-model experiments and, when it names one
// model, the trace of a single-model experiment; -fig8 ignores it.
// -backend sets the byte-level back end of every experiment but -backends,
// which compares back ends, and -detectors, which compresses nothing.
// -segment applies to -segsweep alone.
//
// The output of a tiny run (-all -n 30000 -models
// 410.bwaves,429.mcf,453.povray) is pinned, apart from its timings, by
// testdata/tiny.golden.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"atc/internal/experiment"
	"atc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// renderer is the result of any experiment.
type renderer interface{ Render(w io.Writer) }

// entry is one selectable experiment: the flag that selects it and the
// function that runs it.
type entry struct {
	flag, help string
	run        func() (renderer, error)
}

// run is atcbench with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		n        = fs.Int("n", 0, "addresses per trace (0 = scaled default); -longtrace ignores it")
		seed     = fs.Uint64("seed", experiment.DefaultSeed, "workload seed")
		modelsCS = fs.String("models", "", "comma-separated model subset (default: experiment-specific); a single-model experiment takes it when it names one model; -fig8 ignores it")
		backend  = fs.String("backend", "bsc", "byte-level back end; -backends and -detectors ignore it")
		workers  = fs.Int("workers", 0, "chunk-compression workers (default GOMAXPROCS; 1 = one compression worker)")
		segment  = fs.Int("segment", 0, "-segsweep only: compare the single-chunk baseline against just this lossless segment length in addresses (0 = the default size ladder)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (after the experiments) to this file")
		metrics    = fs.Bool("metrics", false, "after the experiments, print the process metrics registry (Prometheus text format) to stderr")
	)

	// p is set after parsing. Every experiment reads it whole: a field an
	// experiment does not use (N of -longtrace, Backend of -backends) is
	// ignored by that experiment.
	var p experiment.Params
	tc := experiment.NewTraceCache()
	on := map[string]*bool{} // experiment flag → selected
	// t1 holds Table 1's compressed blobs for Table 2, which decodes them
	// (or runs Table 1 itself when -table1 is not selected). It is kept
	// only while Table 2 is still to run, so the experiments after it do
	// not carry the blobs.
	var t1 *experiment.Table1Result
	entries := []entry{
		{"table1", "Table 1: lossless BPA, five compressors", func() (renderer, error) {
			r, err := experiment.RunTable1(experiment.Table1Config{Params: p}, tc)
			if *all || *on["table2"] {
				t1 = r
			}
			return r, err
		}},
		{"table2", "Table 2: decompression speed", func() (renderer, error) {
			r, err := experiment.RunTable2(experiment.Table1Config{Params: p}, t1, tc)
			t1 = nil
			return r, err
		}},
		{"table3", "Table 3: lossless vs lossy BPA", func() (renderer, error) {
			return experiment.RunTable3(experiment.Table3Config{Params: p}, tc)
		}},
		{"fig3", "Figure 3: miss ratios, exact vs lossy", func() (renderer, error) {
			return experiment.RunFigure3(experiment.Figure3Config{Params: p}, tc)
		}},
		{"fig4", "Figure 4: byte-translation ablation", func() (renderer, error) {
			return experiment.RunFigure4(experiment.Figure4Config{Params: p}, tc)
		}},
		{"fig5", "Figure 5: C/DC predictor, exact vs lossy", func() (renderer, error) {
			return experiment.RunFigure5(experiment.Figure5Config{Params: p}, tc)
		}},
		{"fig8", "Figure 8: random-trace demonstration", func() (renderer, error) {
			return experiment.RunFigure8(experiment.Figure8Config{Params: p})
		}},
		{"longtrace", "§6 claim: lossy BPA vs trace length", func() (renderer, error) {
			return experiment.RunLongTrace(experiment.LongTraceConfig{Params: p}, tc)
		}},
		{"epssweep", "extension: threshold sweep", func() (renderer, error) {
			return experiment.RunEpsilonSweep(experiment.EpsilonSweepConfig{Params: p}, tc)
		}},
		{"lsweep", "extension: interval-length (myopic) sweep", func() (renderer, error) {
			return experiment.RunIntervalSweep(experiment.IntervalSweepConfig{Params: p}, tc)
		}},
		{"segsweep", "extension: lossless segment-size sweep (BPA cost of parallelism)", func() (renderer, error) {
			cfg := experiment.SegmentSweepConfig{Params: p}
			if *segment != 0 {
				cfg.SegmentAddrs = []int{-1, *segment}
			}
			return experiment.RunSegmentSweep(cfg, tc)
		}},
		{"backends", "extension: back-end ablation", func() (renderer, error) {
			return experiment.RunBackendCompare(experiment.BackendCompareConfig{Params: p}, tc)
		}},
		{"histsweep", "extension: phase-table capacity sweep", func() (renderer, error) {
			return experiment.RunHistorySweep(experiment.HistorySweepConfig{Params: p}, tc)
		}},
		{"detectors", "extension: histogram vs working-set-signature phase detection", func() (renderer, error) {
			return experiment.RunDetectorCompare(experiment.DetectorCompareConfig{Params: p}, tc)
		}},
		{"optcompare", "extension: LRU vs Belady/OPT fidelity on lossy traces", func() (renderer, error) {
			return experiment.RunOptCompare(experiment.OptCompareConfig{Params: p}, tc)
		}},
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		on[e.flag] = fs.Bool(e.flag, false, e.help)
		names[i] = "-" + e.flag
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	p = experiment.Params{N: *n, Backend: *backend, Seed: *seed, Workers: *workers}
	if *modelsCS != "" {
		for _, m := range strings.Split(*modelsCS, ",") {
			p.Models = append(p.Models, strings.TrimSpace(m))
		}
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "atcbench:", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		// Deferred, so a failing experiment still leaves a valid profile.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "atcbench:", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(stderr, "atcbench:", err)
			}
		}()
	}

	ran := false
	start := time.Now()
	for _, e := range entries {
		if !*all && !*on[e.flag] {
			continue
		}
		res, err := e.run()
		if err != nil {
			return fail(err)
		}
		res.Render(stdout)
		fmt.Fprintln(stdout)
		ran = true
	}
	if !ran {
		fmt.Fprintf(stderr, "atcbench: select an experiment (-all, %s)\n", strings.Join(names, ", "))
		fs.PrintDefaults()
		return 2
	}
	fmt.Fprintf(stderr, "atcbench: done in %s\n", time.Since(start).Round(time.Millisecond))
	if *metrics {
		// Final registry state: encode/decode counters and latency
		// histograms accumulated across every selected experiment — the
		// same series atcserve exports live on /metrics. Stderr so it
		// never interleaves with the experiment tables on stdout.
		if err := obs.Default().WritePrometheus(stderr); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeHeapProfile writes a heap profile of the live allocations to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // report live allocations, not garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
