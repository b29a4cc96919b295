package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer started
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 for a root
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
}

// tracer keeps spans in memory. A disabled tracer records nothing, so the
// same replay code runs traced and untraced.
type tracer struct {
	on       bool
	workload string
	seed     uint64
	t0       time.Time
	spans    []span
	open     []int // stack of open spans
}

func newTracer(on bool, workload string, seed uint64) *tracer {
	return &tracer{on: on, workload: workload, seed: seed, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent,
		Workload: t.workload, Seed: t.seed})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, per span name, the self time in nanoseconds: each
// span's duration minus what its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	self := map[string]int64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", t.workload, t.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
