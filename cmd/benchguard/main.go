// Command benchguard is the repository's benchmark gate. It runs the
// benchmark that BENCHMARK.json declares on two checkouts of the
// repository, on the same machine, and fails when the head checkout is
// worse than the base checkout.
//
// Usage, from anywhere:
//
//	benchguard -base <base checkout> -head <head checkout>
//
// Everything else comes from the head checkout's BENCHMARK.json: the
// command, run_seconds, the workloads and the end-to-end metrics with
// their direction ("better") and relative bound. For every workload the
// gate runs pairs of runs; pair i runs both sides with seed i, and the
// side that runs first alternates from pair to pair, so drift on a shared
// machine lands on both sides. A run is
//
//	<command> --workload W --seed i --seconds <run_seconds> --trace 0
//
// executed in that checkout's root, and its last output line is the JSON
// result. The gate fails when a run exits non-zero, reports
// "correct": false or "failed" > 0, or lacks an end-to-end metric, or
// when on any workload the head's median of a metric is worse than the
// base's median by more than the metric's bound. It then makes one
// --trace 1 run per side per workload and prints every per-layer metric
// side by side; those runs are for diagnosis and do not gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pairs is the number of seeded base/head run pairs per workload.
const pairs = 3

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one gated end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // allowed relative change for the worse
}

// result is the JSON last line of one benchmark run.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one checkout under comparison.
type side struct{ name, dir string }

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Command) == 0 || s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: need command, run_seconds > 0, workloads and end_to_end", path)
	}
	for _, m := range s.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %s needs better lower|higher and bound > 0", path, m.Name)
		}
	}
	return &s, nil
}

// runOne runs the benchmark once in dir and returns its parsed result.
// A run that exits non-zero still returns whatever result it printed, so
// the caller can report the failure it describes.
func runOne(s *spec, dir, workload string, seed int, trace int) (*result, error) {
	args := append(append([]string{}, s.Command[1:]...),
		"--workload", workload,
		"--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(s.RunSeconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	cmd := exec.Command(s.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if runErr != nil {
		runErr = fmt.Errorf("%v%s", runErr, tail(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last output line is not a JSON result: %v", err)
	}
	return &res, runErr
}

// tail returns the last lines of a run's standard error for a failure
// message.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	if len(lines) == 1 && lines[0] == "" {
		return ""
	}
	return ": " + strings.Join(lines, " | ")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// worse returns the relative change of head against base, signed so that
// a positive value is a change for the worse.
func worse(m metricSpec, base, head float64) float64 {
	if base == 0 {
		return 0
	}
	d := (head - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// run compares the base and head checkouts and returns one line per
// gate failure.
func run(baseDir, headDir string, out io.Writer) ([]string, error) {
	s, err := loadSpec(filepath.Join(headDir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	base, head := side{"base", baseDir}, side{"head", headDir}
	var failures []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failures = append(failures, msg)
		fmt.Fprintln(out, "FAIL", msg)
	}
	for _, w := range s.Workloads {
		values := map[string]map[string][]float64{base.name: {}, head.name: {}}
		for i := 1; i <= pairs; i++ {
			order := []side{base, head}
			if i%2 == 0 {
				order = []side{head, base}
			}
			for _, sd := range order {
				start := time.Now()
				res, err := runOne(s, sd.dir, w.Name, i, 0)
				fmt.Fprintf(out, "# %s seed %d %s: %.0fs\n", w.Name, i, sd.name, time.Since(start).Seconds())
				if err != nil {
					fail("%s seed %d %s: run failed: %v", w.Name, i, sd.name, err)
				}
				if res == nil {
					continue
				}
				if !res.Correct || res.Failed > 0 {
					fail("%s seed %d %s: correct=%v failed=%d", w.Name, i, sd.name, res.Correct, res.Failed)
				}
				for _, m := range s.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						fail("%s seed %d %s: metric %s missing", w.Name, i, sd.name, m.Name)
						continue
					}
					values[sd.name][m.Name] = append(values[sd.name][m.Name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s %7s %-6s %s\n", w.Name, "metric (median)", "base", "head", "change", "bound", "", "runs by seed")
		for _, m := range s.EndToEnd {
			bv, hv := values[base.name][m.Name], values[head.name][m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			d := worse(m, bm, hm)
			status := "ok"
			if d > m.Bound {
				status = "WORSE"
			}
			fmt.Fprintf(out, "%-14s %-20s %14.6g %14.6g %+8.1f%% %6.0f%% %-6s base %.4g head %.4g\n",
				"", m.Name, bm, hm, 100*d, 100*m.Bound, status, bv, hv)
			if d > m.Bound {
				fail("%s %s: head median %.6g is %.1f%% worse than base median %.6g (bound %.0f%%)",
					w.Name, m.Name, hm, 100*d, bm, 100*m.Bound)
			}
		}
	}
	for _, w := range s.Workloads {
		traced(s, w.Name, base, head, out)
	}
	return failures, nil
}

// traced makes one --trace 1 run per side and prints every metric side
// by side. It is diagnosis only: nothing here fails the gate.
func traced(s *spec, workload string, base, head side, out io.Writer) {
	res := map[string]*result{}
	for _, sd := range []side{base, head} {
		r, err := runOne(s, sd.dir, workload, 1, 1)
		if err != nil {
			fmt.Fprintf(out, "# %s traced %s: %v\n", workload, sd.name, err)
		}
		if r == nil {
			return
		}
		res[sd.name] = r
	}
	names := map[string]bool{}
	for _, r := range res {
		for n := range r.Metrics {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(out, "%-14s %-36s %14s %14s   (traced, seed 1, not gated)\n", workload, "metric", "base", "head")
	for _, n := range sorted {
		fmt.Fprintf(out, "%-14s %-36s %14s %14s\n", "", n, value(res[base.name], n), value(res[head.name], n))
	}
}

func value(r *result, name string) string {
	v, ok := r.Metrics[name]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v.Value, 'g', 6, 64)
}

func main() {
	baseDir := flag.String("base", "", "base checkout (required)")
	headDir := flag.String("head", "", "head checkout whose BENCHMARK.json is used (required)")
	flag.Parse()
	if *baseDir == "" || *headDir == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -base <dir> -head <dir>")
		os.Exit(2)
	}
	failures, err := run(*baseDir, *headDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(failures) > 0 {
		fmt.Printf("benchguard: %d failure(s):\n", len(failures))
		for _, f := range failures {
			fmt.Println("  ", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: head within every bound of base")
}
