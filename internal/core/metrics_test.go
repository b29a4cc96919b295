package core

import (
	"path/filepath"
	"strings"
	"testing"

	"atc/internal/obs"
)

// TestDecodeTraceStages checks the per-request recorder end to end on the
// sync decode path: chunk loads are counted exactly (against the existing
// ChunkReads observable), fetch/decompress time is attributed, and a
// cached re-read reports hits instead of loads.
func TestDecodeTraceStages(t *testing.T) {
	addrs := rangeTrace()
	for _, m := range rangeModes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := WriteTrace(dir, addrs, m.opts); err != nil {
				t.Fatal(err)
			}
			d, err := Open(dir, DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			tr := &obs.Trace{}
			d.SetTrace(tr)
			before := d.ChunkReads()
			got, err := d.DecodeRange(2500, 5500)
			if err != nil {
				t.Fatal(err)
			}
			d.SetTrace(nil)
			if len(got) != 3000 {
				t.Fatalf("decoded %d addrs, want 3000", len(got))
			}
			loads := d.ChunkReads() - before
			if tr.ChunkLoads() != loads {
				t.Fatalf("trace counted %d chunk loads, reader counted %d", tr.ChunkLoads(), loads)
			}
			if loads == 0 {
				t.Fatal("window decoded without any chunk load")
			}
			if tr.StageNS(obs.StageFetch)+tr.StageNS(obs.StageDecompress) <= 0 {
				t.Fatalf("no fetch/decompress time recorded: %s", tr.Header())
			}
			if tr.TotalNS() <= 0 {
				t.Fatalf("empty trace: %s", tr.Header())
			}
			if m.opts.SegmentAddrs < 0 {
				// The legacy v1 stream is one chunk, opened once and
				// never cached: re-reading the window reopens it.
				if loads != 1 {
					t.Fatalf("legacy window counted %d chunk loads, want 1", loads)
				}
				return
			}

			// Same window again: the pinned chunks must come from cache.
			tr2 := &obs.Trace{}
			d.SetTrace(tr2)
			if _, err := d.DecodeRange(2500, 5500); err != nil {
				t.Fatal(err)
			}
			d.SetTrace(nil)
			if tr2.ChunkLoads() != 0 {
				t.Fatalf("cached re-read loaded %d chunks", tr2.ChunkLoads())
			}
			if tr2.CacheHits() == 0 {
				t.Fatal("cached re-read recorded no cache hits")
			}
		})
	}
}

// TestSequentialDecodeTimesTranslate checks that Decode's span workers
// and the inline decode time an imitation's translation into the
// translate stage, as range windows do: all three copy out through one
// routine.
func TestSequentialDecodeTimesTranslate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace")
	if _, err := WriteTrace(path, mixedLossyTrace(2000, 3, 4), Options{Mode: Lossy, IntervalLen: 2000, BufferAddrs: 400}); err != nil {
		t.Fatal(err)
	}
	for _, readahead := range []int{2, -1} {
		d, err := Open(path, DecodeOptions{Readahead: readahead})
		if err != nil {
			t.Fatal(err)
		}
		translated := 0
		for _, rec := range d.records {
			if rec.tag == recImitate && rec.trans.Mask != 0 {
				translated++
			}
		}
		if translated == 0 {
			t.Fatal("trace has no translated imitation")
		}
		before := metDecodeStage[obs.StageTranslate].Count()
		_, err = d.DecodeAll()
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := metDecodeStage[obs.StageTranslate].Count() - before; n < int64(translated) {
			t.Fatalf("readahead %d: %d translate observations for %d translated imitations", readahead, n, translated)
		}
	}
}

// TestSharedCacheRegister checks the func metrics a shared cache exposes
// on a registry: its budget and the decoded bytes resident across every
// trace.
func TestSharedCacheRegister(t *testing.T) {
	c := NewSharedChunkCacheBytes(80)
	v := c.ForTrace("a")
	v.Put(1, chunkOf(10, 1))
	v.Put(2, chunkOf(5, 2)) // evicts 1
	r := obs.NewRegistry()
	c.Register(r, obs.Label{Key: "cache", Value: "unit"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`atc_chunk_cache_budget_bytes{cache="unit"} 80`,
		`atc_chunk_cache_bytes{cache="unit"} 40`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
