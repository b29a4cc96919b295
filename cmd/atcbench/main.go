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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"atc/internal/experiment"
	"atc/internal/obs"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		table1 = flag.Bool("table1", false, "Table 1: lossless BPA, five compressors")
		table2 = flag.Bool("table2", false, "Table 2: decompression speed")
		table3 = flag.Bool("table3", false, "Table 3: lossless vs lossy BPA")
		fig3   = flag.Bool("fig3", false, "Figure 3: miss ratios, exact vs lossy")
		fig4   = flag.Bool("fig4", false, "Figure 4: byte-translation ablation")
		fig5   = flag.Bool("fig5", false, "Figure 5: C/DC predictor, exact vs lossy")
		fig8   = flag.Bool("fig8", false, "Figure 8: random-trace demonstration")
		long   = flag.Bool("longtrace", false, "§6 claim: lossy BPA vs trace length")

		epsSweep  = flag.Bool("epssweep", false, "extension: threshold sweep")
		lSweep    = flag.Bool("lsweep", false, "extension: interval-length (myopic) sweep")
		segSweep  = flag.Bool("segsweep", false, "extension: lossless segment-size sweep (BPA cost of parallelism)")
		backends  = flag.Bool("backends", false, "extension: back-end ablation")
		histSweep = flag.Bool("histsweep", false, "extension: phase-table capacity sweep")
		detectors = flag.Bool("detectors", false, "extension: histogram vs working-set-signature phase detection")
		optCmp    = flag.Bool("optcompare", false, "extension: LRU vs Belady/OPT fidelity on lossy traces")

		n        = flag.Int("n", 0, "addresses per trace (0 = scaled default)")
		seed     = flag.Uint64("seed", experiment.DefaultSeed, "workload seed")
		modelsCS = flag.String("models", "", "comma-separated model subset (default: experiment-specific)")
		backend  = flag.String("backend", "bsc", "byte-level back end")
		workers  = flag.Int("workers", 0, "chunk-compression workers (default GOMAXPROCS; 1 = one compression worker)")
		segment  = flag.Int("segment", 0, "lossless segment length in addresses (default 16Mi; -1 = legacy single chunk)")
		archive  = flag.Bool("archive", false, "compress experiment traces into single-file .atc archives instead of directories")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
		metrics    = flag.Bool("metrics", false, "after the experiments, print the process metrics registry (Prometheus text format) to stderr")
	)
	flag.Parse()
	if *cpuprofile != "" || *memprofile != "" {
		startProfiles(*cpuprofile, *memprofile)
		defer finishProfiles()
	}
	experiment.Workers = *workers
	experiment.SegmentAddrs = *segment
	experiment.Archive = *archive

	var models []string
	if *modelsCS != "" {
		for _, m := range strings.Split(*modelsCS, ",") {
			models = append(models, strings.TrimSpace(m))
		}
	}
	tc := experiment.NewTraceCache()
	ran := false
	start := time.Now()

	if *all || *table1 || *table2 {
		cfg := experiment.Table1Config{Models: models, N: *n, Seed: *seed, Backend: *backend}
		t1, err := experiment.RunTable1(cfg, tc)
		check(err)
		if *all || *table1 {
			t1.Render(os.Stdout)
			fmt.Println()
		}
		if *all || *table2 {
			t2, err := experiment.RunTable2(cfg, t1, tc)
			check(err)
			t2.Render(os.Stdout)
			fmt.Println()
		}
		ran = true
	}
	if *all || *table3 {
		cfg := experiment.Table3Config{Models: models, N: *n, Seed: *seed, Backend: *backend}
		res, err := experiment.RunTable3(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *fig3 {
		cfg := experiment.Figure3Config{Models: models, N: *n, Seed: *seed, Backend: *backend}
		res, err := experiment.RunFigure3(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *fig4 {
		cfg := experiment.Figure4Config{N: *n, Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunFigure4(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *fig5 {
		cfg := experiment.Figure5Config{Models: models, N: *n, Seed: *seed, Backend: *backend}
		res, err := experiment.RunFigure5(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *fig8 {
		cfg := experiment.Figure8Config{N: *n, Seed: *seed, Backend: *backend}
		res, err := experiment.RunFigure8(cfg)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *long {
		cfg := experiment.LongTraceConfig{Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunLongTrace(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *epsSweep {
		cfg := experiment.EpsilonSweepConfig{N: *n, Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunEpsilonSweep(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *lSweep {
		cfg := experiment.IntervalSweepConfig{N: *n, Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunIntervalSweep(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *segSweep {
		cfg := experiment.SegmentSweepConfig{N: *n, Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunSegmentSweep(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *backends {
		cfg := experiment.BackendCompareConfig{Models: models, N: *n, Seed: *seed}
		res, err := experiment.RunBackendCompare(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}
	if *all || *histSweep {
		cfg := experiment.HistorySweepConfig{N: *n, Seed: *seed, Backend: *backend}
		if len(models) == 1 {
			cfg.Model = models[0]
		}
		res, err := experiment.RunHistorySweep(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}

	if *all || *detectors {
		cfg := experiment.DetectorCompareConfig{Models: models, N: *n, Seed: *seed}
		res, err := experiment.RunDetectorCompare(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}

	if *all || *optCmp {
		cfg := experiment.OptCompareConfig{Models: models, N: *n, Seed: *seed, Backend: *backend}
		res, err := experiment.RunOptCompare(cfg, tc)
		check(err)
		res.Render(os.Stdout)
		fmt.Println()
		ran = true
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "atcbench: select an experiment (-all, -table1, -table2, -table3, -fig3, -fig4, -fig5, -fig8, -longtrace, -epssweep, -lsweep, -segsweep, -backends, -histsweep, -detectors, -optcompare)")
		flag.PrintDefaults()
		finishProfiles()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "atcbench: done in %s\n", time.Since(start).Round(time.Millisecond))
	if *metrics {
		// Final registry state: encode/decode counters and latency
		// histograms accumulated across every selected experiment — the
		// same series atcserve exports live on /metrics. Stderr so it
		// never interleaves with the experiment tables on stdout.
		if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "atcbench:", err)
		}
	}
}

// finishProfiles terminates any active -cpuprofile/-memprofile outputs.
// It is idempotent and runs on every exit path — deferred from main, and
// from check/os.Exit sites, which skip defers — so a failing experiment
// still leaves a valid, parseable CPU profile instead of a truncated one
// (the failing runs are the ones most worth profiling).
var finishProfiles = func() {}

// startProfiles begins CPU profiling (when cpu is non-empty) and arms
// finishProfiles to stop it and to write the heap profile (when mem is
// non-empty).
func startProfiles(cpu, mem string) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		check(err)
		check(pprof.StartCPUProfile(f))
		cpuF = f
	}
	var once sync.Once
	finishProfiles = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				if err := cpuF.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "atcbench:", err)
				}
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "atcbench:", err)
					return
				}
				runtime.GC() // report live allocations, not garbage
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "atcbench:", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "atcbench:", err)
				}
			}
		})
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "atcbench:", err)
		finishProfiles()
		os.Exit(1)
	}
}
