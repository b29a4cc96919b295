// Command perfbench is the repository's end-to-end benchmark. It generates
// one workload from a seed, runs it through the public atc API (batch
// workloads) or through atcserve and atcstatic subprocesses over loopback
// (serve-remote), checks every output, and prints the metrics as a JSON
// object on the last line of standard output.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin <dir with atcserve, atcstatic> -work <scratch dir> \
//	    --workload lossless-gcc|lossy-mcf|serve-remote --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end figures; with --trace 1 a
// traced run replays the workload layer by layer and reports per-layer
// figures instead. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, operation counts, correctness failures and the
// context lines printed above the result.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what a workload needs from the command line.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	binDir   string // holds the atcserve and atcstatic binaries
	workDir  string // scratch space for archives, emptied per run
	outDir   string // where the traced run writes its spans
	sizes    sizes
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env, *report) error{
	"lossless-gcc": runBatch,
	"lossy-mcf":    runBatch,
	"serve-remote": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: lossless-gcc, lossy-mcf or serve-remote")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "how long the measured phase runs")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	binDir := fs.String("bin", "", "directory holding the atcserve and atcstatic binaries")
	workDir := fs.String("work", "", "scratch directory (emptied before use)")
	tiny := fs.Bool("tiny", false, "use tiny inputs (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*wl]
	if !ok || *workDir == "" || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), -work and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		binDir:   *binDir,
		workDir:  filepath.Join(*workDir, "run"),
		outDir:   *workDir,
		sizes:    defaultSizes,
	}
	if *tiny {
		e.sizes = tinySizes
	}
	if err := os.RemoveAll(e.workDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.workDir)

	rep := newReport()
	rep.note("workload=%s seed=%d seconds=%g traced=%v", e.workload, e.seed, e.seconds, e.traced)
	rep.note("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	err := runner(e, rep)
	if err != nil {
		// A workload that cannot run at all has no metrics to report.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "# FAILED:", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	errRatio := 0.0
	if rep.attempted > 0 {
		errRatio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "%-36s %14.6g %s\n", "error_ratio", errRatio, "ratio")
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the processor name for the result's context line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// deadline returns the end of a phase taking share of the run's seconds.
func (e *env) deadline(start time.Time, share float64) time.Time {
	return start.Add(time.Duration(e.seconds * share * float64(time.Second)))
}
