package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"atc"
	"atc/internal/workload"
)

// binDir holds atcserve and atcstatic, built once for the serve tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	cmd := exec.Command("go", "build", "-o", dir+"/", "atc/cmd/atcserve", "atc/cmd/atcstatic")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building atcserve and atcstatic: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runTiny runs one workload at tiny sizes and returns the parsed result.
func runTiny(t *testing.T, workload string, traced bool) (result, string) {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-tiny", "-bin", binDir, "-work", t.TempDir(),
		"--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res, out.String()
}

// TestTinyWorkloads runs every workload end to end, untraced and traced,
// and checks the result names exactly the metrics BENCHMARK.json lists.
func TestTinyWorkloads(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			res, out := runTiny(t, w, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestLayerPredictions checks the traced runs' heavy/zero split: the
// front end and translation do nothing on lossless-gcc, the batch
// workloads report no serving layers, and the back end (bytesort and
// bsc) carries a smaller share of lossy-mcf's encode than of
// lossless-gcc's.
func TestLayerPredictions(t *testing.T) {
	gcc, _ := runTiny(t, "lossless-gcc", true)
	mcf, _ := runTiny(t, "lossy-mcf", true)
	for _, name := range []string{"histogram.ns_per_addr", "translate.ns_per_addr", "phase.match_ns_per_interval", "phase.imitation_ratio"} {
		if v := gcc.Metrics[name].Value; v != 0 {
			t.Errorf("lossless-gcc %s = %v, want 0", name, v)
		}
		if v := mcf.Metrics[name].Value; v <= 0 {
			t.Errorf("lossy-mcf %s = %v, want > 0", name, v)
		}
	}
	for name := range serveLayerMetrics {
		if gcc.Metrics[name].Value != 0 || mcf.Metrics[name].Value != 0 {
			t.Errorf("%s reported on a batch workload", name)
		}
	}
	if g, m := gcc.Metrics["encode.backend_share"].Value, mcf.Metrics["encode.backend_share"].Value; m >= g {
		t.Errorf("back-end share of encode: lossy-mcf %v, lossless-gcc %v; want mcf lower", m, g)
	}
	for _, res := range []result{gcc, mcf} {
		for _, name := range []string{"encode.residual_ratio", "decode.residual_ratio"} {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("no %s", name)
			}
		}
	}
}

// TestBenchmarkJSONPerLayer checks BENCHMARK.json's per_layer list is the
// set of layer metrics the traced runs emit.
func TestBenchmarkJSONPerLayer(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var got, want []string
	for _, m := range bj.PerLayer {
		got = append(got, m.Name+"/"+m.Unit)
	}
	for _, set := range []map[string]string{batchLayerMetrics, serveLayerMetrics} {
		for name, unit := range set {
			want = append(want, name+"/"+unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json per_layer:\n%v\nprogram:\n%v", got, want)
	}
}

// TestSetLatencyParts checks that a burst of slow requests confined to
// one part moves neither latency figure, while a slowdown in every part
// moves both.
func TestSetLatencyParts(t *testing.T) {
	figures := func(lat []float64) (p50, p99 float64) {
		rep := newReport()
		setLatency(rep, lat, 3, "test")
		return rep.metrics["addrs_p50_ms"].Value, rep.metrics["addrs_p99_ms"].Value
	}
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = 1 + float64(i%100)/100
	}
	p50, p99 := figures(lat)
	burst := append([]float64(nil), lat...)
	for i := 1000; i < 2000; i++ {
		burst[i] = 100
	}
	if b50, b99 := figures(burst); b50 != p50 || b99 != p99 {
		t.Errorf("a burst in one part moved the figures: p50 %v -> %v, p99 %v -> %v", p50, b50, p99, b99)
	}
	slow := append([]float64(nil), lat...)
	for i := range slow {
		slow[i] *= 2
	}
	if s50, s99 := figures(slow); s50 != 2*p50 || s99 != 2*p99 {
		t.Errorf("a slowdown everywhere: p50 %v -> %v, p99 %v -> %v, want both doubled", p50, s50, p99, s99)
	}
}

// TestCheckerCatchesFlippedAddress decodes real windows against a
// reference with one address flipped: exactly the window covering it
// must fail.
func TestCheckerCatchesFlippedAddress(t *testing.T) {
	raw, err := workload.GenerateFiltered(gccModel, 8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.atc")
	if _, _, err := encodeArchive(path, raw, []atc.Option{atc.WithSegmentAddrs(2048)}); err != nil {
		t.Fatal(err)
	}
	ref := append([]uint64(nil), raw...)
	ref[3000] ^= 1
	gen := newWindowGen(1, []int64{int64(len(ref))}, 1024, true)
	rep := newReport()
	if _, err := windowPass([]string{path}, [][]uint64{ref}, gen, 64, rep); err != nil {
		t.Fatal(err)
	}
	hits := 0
	g2 := newWindowGen(1, []int64{int64(len(ref))}, 1024, true)
	for i := 0; i < 64; i++ {
		if w := g2.next(); w.from <= 3000 && 3000 < w.to {
			hits++
		}
	}
	if hits == 0 || rep.failed != int64(hits) {
		t.Fatalf("%d windows cover the flipped address, %d failed: %v", hits, rep.failed, rep.problems)
	}
	if err := checkAddrs("decode", ref, raw, 0); err == nil {
		t.Fatal("a whole-trace decode with one flipped address passed the check")
	}
}

// TestCheckerCatchesFlippedByte serves a window with one flipped byte, as
// a whole response and as a 206 slice; both must fail.
func TestCheckerCatchesFlippedByte(t *testing.T) {
	ref := make([]uint64, 64)
	for i := range ref {
		ref[i] = uint64(i) * 0x1234567
	}
	wire := wireBytes(ref)
	bad := append([]byte(nil), wire...)
	bad[100] ^= 0x80
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(bad))
	}))
	defer srv.Close()
	lg := &loadgen{base: srv.URL, traces: []*servedTrace{{name: "t", addrs: 64, wire: wire}}, conns: 1}
	defer lg.close()
	reqs := []request{
		{w: window{from: 0, to: 64}},
		{w: window{from: 0, to: 64}, ranged: true, start: 90, end: 110},
		{w: window{from: 0, to: 64}, ranged: true, start: 0, end: 50}, // does not cover the flip
	}
	outs := lg.run(reqs, 1000)
	if outs[0].err == nil || outs[1].err == nil {
		t.Fatalf("flipped byte not caught: whole %v, ranged %v", outs[0].err, outs[1].err)
	}
	if outs[2].err != nil {
		t.Fatalf("clean 206 slice failed: %v", outs[2].err)
	}
}
