package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"atc"
	"atc/internal/bitio"
	"atc/internal/bsc"
	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/core"
	"atc/internal/histogram"
	"atc/internal/huffman"
	"atc/internal/mtf"
	"atc/internal/phase"
	"atc/internal/store"
)

// The real pipeline's parameters the replay must use to produce the same
// bytes: the writer's default bytesort buffer, back end and phase table.
const (
	replayBufferAddrs = core.DefaultBufferAddrs
	replayBackend     = core.DefaultBackend
)

// replayRecord is one interval or segment of the replayed trace.
type replayRecord struct {
	chunkID int
	trans   *histogram.Translations // imitations only
}

// replayed is what one encode replay produced.
type replayed struct {
	records    []replayRecord
	blobs      map[int][]byte // chunk blobs by chunk id
	imitations int
	intervals  int
	prune      phase.Stats
	bscIn      int64 // bytes into the back end (bytesort output)
	blobBytes  int64
}

func chunkName(id int) string { return fmt.Sprintf("%d.%s", id, replayBackend) }

// replayEncode runs the encoder's layers serially on raw through their
// public functions: histogram.ComputeInto, phase.Table.Match/Insert and
// histogram.BuildTranslations per lossy interval, then per chunk the
// bytesort encoder and bsc.Compress, with bsc's stages timed beside it.
func (s *scratch) replayEncode(t *tracer, spec batchSpec, raw []uint64) (*replayed, error) {
	root := t.begin("encode")
	defer t.end(root)
	out := &replayed{blobs: map[int][]byte{}}
	next := 1
	addChunk := func(addrs []uint64) error {
		blob, in, err := s.encodeChunk(t, addrs)
		if err != nil {
			return err
		}
		out.blobs[next] = blob
		out.records = append(out.records, replayRecord{chunkID: next})
		out.bscIn += in
		out.blobBytes += int64(len(blob))
		next++
		return nil
	}
	if !spec.lossy {
		for i := 0; i < len(raw); i += spec.segment {
			if err := addChunk(raw[i:min(i+spec.segment, len(raw))]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	table := phase.New(phase.DefaultCapacity, phase.DefaultEpsilon)
	for i := 0; i < len(raw); i += spec.interval {
		addrs := raw[i:min(i+spec.interval, len(raw))]
		full := len(addrs) == spec.interval
		out.intervals++
		sp := t.begin("histogram")
		h := new(histogram.Set)
		histogram.ComputeInto(h, addrs)
		t.end(sp)
		if full {
			sp = t.begin("phase")
			id, _, ok := table.Match(h)
			t.end(sp)
			if ok {
				src, found := table.Lookup(id)
				if !found {
					return nil, fmt.Errorf("replay: matched chunk %d not resident", id)
				}
				sp = t.begin("histogram")
				tr := histogram.BuildTranslations(src, h, phase.DefaultEpsilon)
				t.end(sp)
				out.records = append(out.records, replayRecord{chunkID: id, trans: tr})
				out.imitations++
				continue
			}
			sp = t.begin("phase")
			table.Insert(next, h)
			t.end(sp)
		}
		if err := addChunk(addrs); err != nil {
			return nil, err
		}
	}
	out.prune = table.Stats()
	return out, nil
}

// byteSink collects written bytes.
type byteSink struct{ b []byte }

func (s *byteSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// scratch is the working state one replay reuses across chunks and
// blocks, as the pipeline's pooled decode units and bsc.Reader reuse
// theirs.
type scratch struct {
	bscR    *bsc.Reader
	blobR   bytes.Reader
	plain   bytes.Buffer // a chunk's bsc output, the bytesort stream
	plainR  bytes.Reader
	sortDec *bytesort.Decoder
	// The bsc stages' working buffers.
	coded  byteSink
	codedR bytes.Reader
	bits   bitio.Reader
	dec    huffman.Decoder
	syms   []uint16
	mtfOut []byte
	block  []byte
	next   []int32
}

func newScratch() *scratch {
	return &scratch{bscR: bsc.NewReader(nil), sortDec: bytesort.NewDecoder(nil)}
}

// encodeChunk bytesorts one chunk and compresses it with bsc.Compress,
// the back end's own code, returning the blob and the number of bytes the
// back end consumed. It then times bsc's stages on the same bytes.
func (s *scratch) encodeChunk(t *tracer, addrs []uint64) ([]byte, int64, error) {
	sp := t.begin("bytesort.encode")
	sorted := byteSink{b: make([]byte, 0, 8*len(addrs)+64)}
	enc := bytesort.NewEncoder(&sorted, min(replayBufferAddrs, len(addrs)))
	err := enc.WriteSlice(addrs)
	if err == nil {
		err = enc.Close()
	}
	t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = t.begin("bsc.compress")
	blob, err := bsc.Compress(sorted.b)
	t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	return blob, int64(len(sorted.b)), s.bscStages(t, sorted.b)
}

// bscStages times the stages bsc chains on each block of data, through
// their own packages: bwt.Transform, mtf.Encode and the Huffman code of
// the symbols, then the inverses with working buffers reused across
// blocks and chunks. Each inverse must give back its stage's input. The
// stages run beside bsc.Compress and bsc.Reader, not inside them, so bsc
// time they do not cover (framing, code-length tables, CRC, buffering) is
// bsc's own.
func (s *scratch) bscStages(t *tracer, data []byte) error {
	for off := 0; off < len(data); off += bsc.DefaultBlockSize {
		block := data[off:min(off+bsc.DefaultBlockSize, len(data))]
		sp := t.begin("bwt.forward")
		transformed, primary := bwt.Transform(block)
		t.end(sp)
		sp = t.begin("mtf.encode")
		syms := mtf.Encode(transformed)
		t.end(sp)
		sp = t.begin("huffman.encode")
		lengths, err := s.huffmanEncode(syms)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("huffman.decode")
		err = s.huffmanDecode(lengths, len(syms))
		t.end(sp)
		if err == nil && !slices.Equal(s.syms, syms) {
			err = errors.New("huffman decode differs from mtf.Encode's symbols")
		}
		if err != nil {
			return fmt.Errorf("bsc stages do not compose: %w", err)
		}
		sp = t.begin("mtf.decode")
		out, _, err := mtf.DecodeInto(s.mtfOut, s.syms)
		t.end(sp)
		if out != nil {
			s.mtfOut = out
		}
		if err == nil && !bytes.Equal(out, transformed) {
			err = errors.New("mtf decode differs from the BWT output")
		}
		if err != nil {
			return fmt.Errorf("bsc stages do not compose: %w", err)
		}
		sp = t.begin("bwt.inverse")
		inv, next, err := bwt.InverseInto(s.block, s.next, out, primary)
		t.end(sp)
		s.next = next
		if inv != nil {
			s.block = inv
		}
		if err == nil && !bytes.Equal(inv, block) {
			err = errors.New("bwt inverse differs from the block")
		}
		if err != nil {
			return fmt.Errorf("bsc stages do not compose: %w", err)
		}
	}
	return nil
}

// huffmanEncode codes one block's symbols into s.coded with a canonical
// code built from their frequencies, and returns the code lengths.
func (s *scratch) huffmanEncode(syms []uint16) ([]uint8, error) {
	freqs := make([]int64, mtf.NumSyms)
	for _, sym := range syms {
		freqs[sym]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	cb, err := huffman.NewCodebook(lengths)
	if err != nil {
		return nil, err
	}
	s.coded.b = s.coded.b[:0]
	bw := bitio.NewWriter(&s.coded)
	enc := huffman.NewEncoder(cb, bw)
	for _, sym := range syms {
		if err := enc.WriteSymbol(int(sym)); err != nil {
			return nil, err
		}
	}
	return lengths, bw.Close()
}

// huffmanDecode reads n symbols of s.coded into s.syms.
func (s *scratch) huffmanDecode(lengths []uint8, n int) error {
	s.codedR.Reset(s.coded.b)
	s.bits.Reset(&s.codedR)
	if err := s.dec.Reset(lengths, &s.bits); err != nil {
		return err
	}
	s.syms = slices.Grow(s.syms[:0], n)
	for range n {
		sym, err := s.dec.ReadSymbol()
		if err != nil {
			return err
		}
		s.syms = append(s.syms, uint16(sym))
	}
	return nil
}

// replayStore writes the replayed chunk blobs, plus the real archive's
// INFO and MANIFEST, into a fresh archive, then reads every blob back.
func replayStore(t *tracer, rp *replayed, realPath, dir string) (written, read int64, err error) {
	real, err := store.OpenArchive(realPath)
	if err != nil {
		return 0, 0, err
	}
	defer real.Close()
	meta := map[string][]byte{}
	for _, name := range []string{"MANIFEST", "INFO." + replayBackend} {
		if meta[name], err = store.ReadBlob(real, name); err != nil {
			return 0, 0, err
		}
	}
	path := filepath.Join(dir, "replay.atc")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, 0, err
	}
	sp := t.begin("store.write")
	st, err := store.CreateArchive(path)
	if err == nil {
		for _, r := range rp.records {
			if b, ok := rp.blobs[r.chunkID]; ok && r.trans == nil {
				if err = store.WriteBlob(st, chunkName(r.chunkID), b); err != nil {
					break
				}
				written += int64(len(b))
			}
		}
		for name, b := range meta {
			if err == nil {
				err = store.WriteBlob(st, name, b)
				written += int64(len(b))
			}
		}
		if err == nil {
			err = st.Close()
		}
	}
	t.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = t.begin("store.read")
	rs, err := store.OpenArchive(path)
	if err == nil {
		names, lerr := rs.List()
		err = lerr
		for _, name := range names {
			var b []byte
			if b, err = store.ReadBlob(rs, name); err != nil {
				break
			}
			read += int64(len(b))
		}
		rs.Close()
	}
	t.end(sp)
	return written, read, err
}

// replayDecode inverts the replayed records: per chunk a bsc.Reader and
// a bytesort.Decoder, both reset onto each chunk as the pipeline's pooled
// decode units are, per imitation a copy of the source chunk through
// Translations.ApplySlice.
func (s *scratch) replayDecode(t *tracer, rp *replayed, total int) ([]uint64, error) {
	root := t.begin("decode")
	defer t.end(root)
	out := make([]uint64, 0, total)
	chunks := map[int][]uint64{}
	for _, r := range rp.records {
		if r.trans != nil {
			src := chunks[r.chunkID]
			sp := t.begin("translate")
			n := len(out)
			out = append(out, src...)
			r.trans.ApplySlice(out[n:])
			t.end(sp)
			continue
		}
		sp := t.begin("bsc.decompress")
		s.blobR.Reset(rp.blobs[r.chunkID])
		s.bscR.Reset(&s.blobR)
		s.plain.Reset()
		_, err := s.plain.ReadFrom(s.bscR)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("bytesort.decode")
		s.plainR.Reset(s.plain.Bytes())
		s.sortDec.Reset(&s.plainR)
		n := len(out)
		out, err = readAddrs(s.sortDec, out)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		chunks[r.chunkID] = out[n:]
	}
	return out, nil
}

// readAddrs appends everything d decodes to out.
func readAddrs(d *bytesort.Decoder, out []uint64) ([]uint64, error) {
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, 1<<16)
		}
		m, err := d.ReadSlice(out[len(out):cap(out)])
		out = out[:len(out)+m]
		if err == io.EOF || (err == nil && m == 0) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// checkComposes compares one trace's replay with the real run on it: the
// same imitation count and byte-identical chunk blobs. A difference means
// the layers do not compose into the pipeline.
func checkComposes(rp *replayed, k int, realPath string) error {
	r, err := atc.NewReader(realPath)
	if err != nil {
		return err
	}
	imitations := 0
	for _, span := range r.ChunkIndex() {
		if span.Imitation {
			imitations++
		}
	}
	r.Close()
	if imitations != rp.imitations {
		return fmt.Errorf("replay of trace %d does not compose: %d imitations, the writer made %d", k, rp.imitations, imitations)
	}
	real, err := store.OpenArchive(realPath)
	if err != nil {
		return err
	}
	defer real.Close()
	names, err := real.List()
	if err != nil {
		return err
	}
	chunks := 0
	for _, name := range names {
		if name != "MANIFEST" && name != "INFO."+replayBackend {
			chunks++
		}
	}
	if chunks != len(rp.blobs) {
		return fmt.Errorf("replay of trace %d does not compose: %d chunks, the writer made %d", k, len(rp.blobs), chunks)
	}
	for id, b := range rp.blobs {
		want, err := store.ReadBlob(real, chunkName(id))
		if err != nil {
			return err
		}
		if err := checkBytes(fmt.Sprintf("replay of trace %d does not compose: chunk blob %s", k, chunkName(id)), want, b); err != nil {
			return err
		}
	}
	return nil
}

// replayAll replays every trace of the workload through the layers
// under one tracer, checking each against the real archive, and returns
// the summed counts, each trace's decode and the bytes the store wrote
// and read.
func replayAll(t *tracer, spec batchSpec, raws [][]uint64, realPaths []string, dir string) (*replayed, [][]uint64, int64, int64, error) {
	sum := &replayed{}
	var decs [][]uint64
	var written, read int64
	s := newScratch()
	for k, raw := range raws {
		rp, err := s.replayEncode(t, spec, raw)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		w, r, err := replayStore(t, rp, realPaths[k], dir)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		// The real decode passes start on a collected heap; so does this.
		debug.FreeOSMemory()
		dec, err := s.replayDecode(t, rp, len(raw))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		written, read = written+w, read+r
		decs = append(decs, dec)
		sum.imitations += rp.imitations
		sum.intervals += rp.intervals
		sum.prune.Pruned += rp.prune.Pruned
		sum.prune.Compared += rp.prune.Compared
		sum.bscIn += rp.bscIn
		sum.blobBytes += rp.blobBytes
		if err := checkComposes(rp, k, realPaths[k]); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return sum, decs, written, read, nil
}

// runBatchTraced is the traced run of a batch workload. Each round times
// the real writer with default and with one worker, the real reader with
// default and with synchronous readahead, and replays encode and decode
// layer by layer, traced and untraced. Per-layer figures are medians over
// rounds; the residual compares the serial real passes with the sum of
// the layers' times.
func runBatchTraced(e *env, rep *report, spec batchSpec, raws [][]uint64) error {
	n := 0.0
	for _, raw := range raws {
		n += float64(len(raw))
	}
	realPaths := archivePaths(e.workDir, "trace", len(raws))
	serialPaths := archivePaths(e.workDir, "serial", len(raws))
	serialOpts := append(append([]atc.Option(nil), spec.writeOpts...), atc.WithWorkers(1))
	type round struct {
		wallEnc, wallEncSerial, wallDec, wallDecSync float64          // ns
		self                                         map[string]int64 // layer self times, ns
		traced, untraced                             float64          // ns, encode+decode replay
		written, read                                int64
	}
	var rounds []round
	var last *replayed
	refs := make([][]uint64, len(raws))
	tr := newTracer(true, e.workload, e.seed)
	start := time.Now()
	end := e.deadline(start, 1)
	for len(rounds) == 0 || time.Now().Before(end) {
		var rd round
		for k, raw := range raws {
			debug.FreeOSMemory()
			_, dt, err := encodeArchive(realPaths[k], raw, spec.writeOpts)
			rep.op(err)
			if err != nil {
				return err
			}
			rd.wallEnc += float64(dt.Nanoseconds())
			debug.FreeOSMemory()
			_, dt, err = encodeArchive(serialPaths[k], raw, serialOpts)
			rep.op(err)
			if err != nil {
				return err
			}
			rd.wallEncSerial += float64(dt.Nanoseconds())
			debug.FreeOSMemory()
			out, dt, err := decodeArchive(realPaths[k])
			rep.op(err)
			if err != nil {
				return err
			}
			rd.wallDec += float64(dt.Nanoseconds())
			refs[k] = out
			if !spec.lossy {
				rep.op(checkAddrs("decode", raw, out, 0))
			} else {
				rep.op(checkLossyShape(raw, out))
			}
			debug.FreeOSMemory()
			out, dt, err = decodeArchive(realPaths[k], atc.WithReadahead(-1))
			rep.op(err)
			if err != nil {
				return err
			}
			rep.op(checkAddrs("synchronous decode", refs[k], out, 0))
			rd.wallDecSync += float64(dt.Nanoseconds())
		}

		// The replay runs traced and untraced, alternating which goes
		// first, for the tracing overhead.
		for _, traced := range []bool{len(rounds)%2 == 0, len(rounds)%2 != 0} {
			rt := newTracer(traced, e.workload, e.seed)
			debug.FreeOSMemory()
			t0 := time.Now()
			rp, decs, w, r, err := replayAll(rt, spec, raws, realPaths, e.workDir)
			wall := float64(time.Since(t0).Nanoseconds())
			rep.op(err)
			if err != nil {
				return err
			}
			for k := range decs {
				rep.op(checkAddrs("replay decode does not compose: decode", refs[k], decs[k], 0))
			}
			if !traced {
				rd.untraced = wall
				continue
			}
			rd.traced, rd.written, rd.read = wall, w, r
			rd.self = rt.selfTimes()
			appendSpans(tr, rt)
			last = rp
		}
		rounds = append(rounds, rd)
	}

	med := func(f func(round) float64) float64 {
		var v []float64
		for _, r := range rounds {
			v = append(v, f(r))
		}
		return median(v)
	}
	self := func(r round, names ...string) float64 {
		var s int64
		for _, name := range names {
			s += r.self[name]
		}
		return float64(s)
	}
	bscIn := float64(last.bscIn)
	intervals := float64(max(last.intervals, 1))
	encLayers := []string{"histogram", "phase", "bytesort.encode", "bsc.compress", "store.write"}
	decLayers := []string{"store.read", "bsc.decompress", "bytesort.decode", "translate"}
	bscStages := []string{"bwt.forward", "bwt.inverse", "mtf.encode", "mtf.decode", "huffman.encode", "huffman.decode"}

	rep.set("histogram.ns_per_addr", "ns", med(func(r round) float64 { return self(r, "histogram") / n }))
	rep.set("translate.ns_per_addr", "ns", med(func(r round) float64 { return self(r, "translate") / n }))
	rep.set("phase.match_ns_per_interval", "ns", med(func(r round) float64 { return self(r, "phase") / intervals }))
	rep.set("phase.imitation_ratio", "ratio", float64(last.imitations)/intervals)
	pr := last.prune
	rep.set("phase.prune_ratio", "ratio", ratio(float64(pr.Pruned), float64(pr.Pruned+pr.Compared)))
	rep.set("bytesort.encode_ns_per_addr", "ns", med(func(r round) float64 { return self(r, "bytesort.encode") / n }))
	rep.set("bytesort.decode_ns_per_addr", "ns", med(func(r round) float64 { return self(r, "bytesort.decode") / n }))
	for _, name := range bscStages {
		name := name
		rep.set(name+"_ns_per_byte", "ns", med(func(r round) float64 { return self(r, name) / bscIn }))
	}
	rep.set("bsc.compress_ns_per_byte", "ns", med(func(r round) float64 { return self(r, "bsc.compress") / bscIn }))
	rep.set("bsc.decompress_ns_per_byte", "ns", med(func(r round) float64 { return self(r, "bsc.decompress") / bscIn }))
	rep.set("bsc.self_share", "ratio", med(func(r round) float64 {
		whole := self(r, "bsc.compress", "bsc.decompress")
		return ratio(whole-self(r, bscStages...), whole)
	}))
	rep.set("bsc.out_bits_per_addr", "bits", float64(last.blobBytes*8)/n)
	rep.set("store.write_ns_per_byte", "ns", med(func(r round) float64 { return self(r, "store.write") / float64(r.written) }))
	rep.set("store.read_ns_per_byte", "ns", med(func(r round) float64 { return self(r, "store.read") / float64(r.read) }))
	procs := float64(runtime.GOMAXPROCS(0))
	rep.set("core.encode_parallel_efficiency", "ratio", med(func(r round) float64 { return self(r, encLayers...) / (r.wallEnc * procs) }))
	encRes := med(func(r round) float64 { return (r.wallEncSerial - self(r, encLayers...)) / r.wallEncSerial })
	decRes := med(func(r round) float64 { return (r.wallDecSync - self(r, decLayers...)) / r.wallDecSync })
	backend := []string{"bytesort.encode", "bsc.compress"}
	rep.set("encode.backend_share", "ratio", med(func(r round) float64 { return self(r, backend...) / self(r, encLayers...) }))
	rep.set("encode.residual_ratio", "ratio", encRes)
	rep.set("decode.residual_ratio", "ratio", decRes)
	rep.set("trace.overhead_ratio", "ratio", med(func(r round) float64 { return (r.traced - r.untraced) / r.untraced }))
	if spec.lossy {
		mre, err := meanMissRatioError(raws, refs)
		if err != nil {
			return err
		}
		rep.set("lossy.miss_ratio_error", "ratio", mre)
	} else {
		rep.set("lossy.miss_ratio_error", "ratio", 0)
	}
	setZeros(rep, serveLayerMetrics)
	for what, res := range map[string]float64{"encode (WithWorkers(1))": encRes, "decode (WithReadahead(-1))": decRes} {
		if res > 0.10 {
			rep.note("FLAG: %s residual %.1f%% of wall time is outside the traced layers (above 10%%)", what, 100*res)
		}
	}
	rep.note("traced rounds=%d; %s: %d traces, %.0f addrs, %d imitations of %d intervals",
		len(rounds), spec.model, len(raws), n, last.imitations, last.intervals)
	rep.note("replay matches the writer: same imitation count and byte-identical chunk blobs; replay decode equals DecodeAll")
	path, err := tr.write(e.outDir)
	if err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.spans), path)
	return nil
}

// appendSpans moves one round's spans into the run's tracer, keeping
// parent links.
func appendSpans(dst, src *tracer) {
	base := len(dst.spans)
	off := int64(src.t0.Sub(dst.t0))
	for _, s := range src.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += off
		s.End += off
		dst.spans = append(dst.spans, s)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
