package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stub stands in for the benchmark command. It logs its checkout and
// arguments to the shared calls.log, prints a context line and then the
// checkout's result line (result-<seed>.json if present, else
// result.json), and exits with the status in the checkout's exit file.
const stub = `#!/bin/sh
echo "$(basename "$PWD") $*" >> ../calls.log
echo "# workload=$2 seed=$4"
if [ -f "result-$4.json" ]; then cat "result-$4.json"; else cat result.json; fi
exit "$(cat exit)"
`

const benchmarkJSON = `{
  "command": ["sh", %q],
  "run_seconds": 7,
  "workloads": [{"name": "alpha", "why": "first"}, {"name": "beta", "why": "second"}],
  "end_to_end": [
    {"name": "ns_per_addr", "unit": "ns", "better": "lower", "bound": 0.25},
    {"name": "ratio", "unit": "ratio", "better": "higher", "bound": 0.25}
  ]
}`

// resultLine is one benchmark result; a negative value leaves that metric
// out.
func resultLine(t *testing.T, correct bool, failed int, ns, ratio float64) string {
	t.Helper()
	metrics := map[string]map[string]any{}
	if ns >= 0 {
		metrics["ns_per_addr"] = map[string]any{"value": ns, "unit": "ns"}
	}
	if ratio >= 0 {
		metrics["ratio"] = map[string]any{"value": ratio, "unit": "ratio"}
	}
	b, err := json.Marshal(map[string]any{"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkout is one fake checkout: the result line its runs print, an
// optional per-seed override, and its exit status.
type checkout struct {
	result string
	seeds  map[int]string
	exit   int
}

// setup lays out base and head checkouts beside the stub and returns
// their directories and the path of the shared call log.
func setup(t *testing.T, base, head checkout) (baseDir, headDir, log string) {
	t.Helper()
	root := t.TempDir()
	write(t, filepath.Join(root, "stub.sh"), stub)
	for name, c := range map[string]checkout{"base": base, "head": head} {
		dir := filepath.Join(root, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		write(t, filepath.Join(dir, "result.json"), c.result)
		for seed, line := range c.seeds {
			write(t, filepath.Join(dir, fmt.Sprintf("result-%d.json", seed)), line)
		}
		write(t, filepath.Join(dir, "exit"), fmt.Sprint(c.exit))
	}
	headDir = filepath.Join(root, "head")
	write(t, filepath.Join(headDir, "BENCHMARK.json"), fmt.Sprintf(benchmarkJSON, filepath.Join(root, "stub.sh")))
	return filepath.Join(root, "base"), headDir, filepath.Join(root, "calls.log")
}

func runGate(t *testing.T, base, head checkout) (failures []string, out string, log string) {
	t.Helper()
	baseDir, headDir, logPath := setup(t, base, head)
	var b strings.Builder
	failures, err := run(baseDir, headDir, &b)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return failures, b.String(), string(calls)
}

// wantFailures checks that the gate failed and that its failures mention
// every wanted fragment.
func wantFailures(t *testing.T, failures []string, out string, fragments ...string) {
	t.Helper()
	if len(failures) == 0 {
		t.Fatalf("gate passed, want a failure\n%s", out)
	}
	all := strings.Join(failures, "\n")
	for _, f := range fragments {
		if !strings.Contains(all, f) {
			t.Fatalf("failures do not mention %q:\n%s", f, all)
		}
	}
}

func TestWithinBoundPasses(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		// 20% slower and 20% lower ratio: inside both 25% bounds. One
		// seed's outlier does not move the median.
		checkout{result: resultLine(t, true, 0, 120, 0.8), seeds: map[int]string{2: resultLine(t, true, 0, 1000, 0.1)}})
	if len(failures) != 0 {
		t.Fatalf("failures = %q, want none\n%s", failures, out)
	}
	if !strings.Contains(out, "ns_per_addr") || !strings.Contains(out, "traced") {
		t.Fatalf("report lacks the metric table or the traced comparison:\n%s", out)
	}
}

func TestLowerIsBetterPastBoundFails(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 0, 130, 1.0)})
	wantFailures(t, failures, out, "alpha ns_per_addr", "beta ns_per_addr")
	if strings.Contains(strings.Join(failures, "\n"), "ratio") {
		t.Fatalf("unchanged ratio reported as a failure: %q", failures)
	}
}

func TestHigherIsBetterPastBoundFails(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 0, 100, 0.7)})
	wantFailures(t, failures, out, "alpha ratio", "beta ratio")
	if strings.Contains(strings.Join(failures, "\n"), "ns_per_addr") {
		t.Fatalf("unchanged time reported as a failure: %q", failures)
	}
}

func TestFailedOperationsFail(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 1, 100, 1.0)})
	wantFailures(t, failures, out, "alpha seed 1 head: correct=true failed=1")
}

func TestIncorrectRunFails(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, false, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 0, 100, 1.0)})
	wantFailures(t, failures, out, "alpha seed 1 base: correct=false")
}

func TestNonZeroExitFails(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 0, 100, 1.0), exit: 3})
	wantFailures(t, failures, out, "beta seed 3 head: run failed: exit status 3")
}

func TestMissingMetricFails(t *testing.T) {
	failures, out, _ := runGate(t,
		checkout{result: resultLine(t, true, 0, 100, 1.0)},
		checkout{result: resultLine(t, true, 0, 100, -1)})
	wantFailures(t, failures, out, "alpha seed 2 head: metric ratio missing")
}

// TestPairsShareSeedAndAlternateOrder checks the run schedule: per
// workload, pair i runs both sides with seed i, the side that runs first
// alternates, every run passes the spec's seconds and --trace 0, and one
// traced run per side follows the gated pairs.
func TestPairsShareSeedAndAlternateOrder(t *testing.T) {
	line := resultLine(t, true, 0, 100, 1.0)
	failures, out, log := runGate(t, checkout{result: line}, checkout{result: line})
	if len(failures) != 0 {
		t.Fatalf("failures = %q, want none\n%s", failures, out)
	}
	var want []string
	for _, w := range []string{"alpha", "beta"} {
		for seed := 1; seed <= pairs; seed++ {
			sides := []string{"base", "head"}
			if seed%2 == 0 {
				sides = []string{"head", "base"}
			}
			for _, s := range sides {
				want = append(want, fmt.Sprintf("%s --workload %s --seed %d --seconds 7 --trace 0", s, w, seed))
			}
		}
	}
	for _, w := range []string{"alpha", "beta"} {
		for _, s := range []string{"base", "head"} {
			want = append(want, fmt.Sprintf("%s --workload %s --seed 1 --seconds 7 --trace 1", s, w))
		}
	}
	if got := strings.Split(strings.TrimSpace(log), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("run schedule:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestBadSpecErrors(t *testing.T) {
	baseDir, headDir, _ := setup(t, checkout{}, checkout{})
	write(t, filepath.Join(headDir, "BENCHMARK.json"), `{"command": ["sh"], "run_seconds": 7, "workloads": [{"name": "a"}],
		"end_to_end": [{"name": "x", "better": "sideways", "bound": 0.1}]}`)
	if _, err := run(baseDir, headDir, &strings.Builder{}); err == nil {
		t.Fatal("a metric with better: sideways was accepted")
	}
}
