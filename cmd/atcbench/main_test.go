package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenArgs is the tiny-scale run that testdata/tiny.golden records. To
// regenerate the file after a change that moves a number on purpose:
//
//	go run ./cmd/atcbench -all -n 30000 -models 410.bwaves,429.mcf,453.povray |
//		awk '/^Table 2:/{s=1} s&&/^$/{s=0;next} !s' > cmd/atcbench/testdata/tiny.golden
var goldenArgs = []string{"-all", "-n", "30000", "-models", "410.bwaves,429.mcf,453.povray"}

// dropTimings removes the lines that hold wall-clock times: the Table 2
// block up to and including its closing blank line, and the "done in"
// line.
func dropTimings(out string) string {
	var b strings.Builder
	skip := false
	for _, line := range strings.SplitAfter(out, "\n") {
		switch {
		case strings.HasPrefix(line, "Table 2:"):
			skip = true
		case skip && line == "\n":
			skip = false
			continue
		case strings.HasPrefix(line, "atcbench: done in "):
			continue
		}
		if !skip {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestGoldenTiny pins every deterministic number atcbench prints — bits
// per address, chunk and imitation counts, miss ratios, predictor shares
// and the sweeps — at a scale that runs in seconds. Stdout and stderr go
// to one buffer, so a stray diagnostic fails the test too.
func TestGoldenTiny(t *testing.T) {
	var out bytes.Buffer
	if code := run(goldenArgs, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	want, err := os.ReadFile("testdata/tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(dropTimings(out.String()), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/tiny.golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "select an experiment"},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined"},
		{[]string{"-fig4", "-n", "1000", "-models", "nosuchmodel"}, 1, "nosuchmodel"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr.String(), tc.msg)
		}
	}
}
