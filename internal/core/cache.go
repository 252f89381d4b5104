package core

import (
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/artifact"
	"repro/internal/asap7"
	"repro/internal/bbv"
	"repro/internal/binio"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/mav"
	"repro/internal/power"
	"repro/internal/sampling"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// This file threads the content-addressed artifact cache through the flow.
// Each pipeline stage is keyed by a SHA-256 over a canonical encoding of
// everything its output depends on, chained through the upstream stage
// keys:
//
//	bbv        ← workload identity (name, suite, scale, generator output:
//	             source text, data segments, checksum) + interval size
//	select     ← bbv key + simpoint.Config
//	checkpoint ← bbv key + select key + warm-up length
//	measure    ← checkpoint key + boom.Config + asap7.Library
//	full       ← workload identity + boom.Config + asap7.Library
//
// Each stage's payload schema carries its own version; bumping a version
// orphans every entry written under the old schema (never read, the file
// name embeds the version). Payload integrity is the cache's job
// (internal/artifact); payload meaning is versioned here.

// Per-stage payload schema versions. The profile stages carry two schema
// generations: the legacy versions, reserved for the zero sampling spec
// (their keys and payloads are pinned byte-for-byte by the equivalence
// goldens), and the spec-bearing versions, whose key structs append the
// sampling spec so every distinct spec owns a distinct cold/warm cache
// identity.
const (
	bbvSchema     = 1
	selectSchema  = 1
	ckptSchema    = 2 // v2: flate-compressed body
	measureSchema = 1
	fullSchema    = 1

	bbvSpecSchema    = 2 // v2: sampling spec in key; optional MAV section in payload
	selectSpecSchema = 2 // v2: sampling spec in key
	ckptSpecSchema   = 3 // v3: sampling spec (resolved warm-up) in key
)

// maxCachedLen bounds decoded slice lengths (corrupt-payload defense).
const maxCachedLen = 1 << 28

// maxCkptRawLen bounds the inflated size of a checkpoint payload, so a
// corrupt entry cannot act as a decompression bomb.
const maxCkptRawLen = 1 << 31

// workloadIdent is every input that determines a workload's committed
// instruction stream: the generator's name and parameters are fully
// captured by the generated source, data segments and reference checksum.
type workloadIdent struct {
	Name         string
	Suite        string
	Scale        int
	IntervalSize int64
	Checksum     uint64
	Source       string
	Segments     []workloads.Segment
}

func identOf(w *workloads.Workload) workloadIdent {
	return workloadIdent{
		Name:         w.Name,
		Suite:        w.Suite,
		Scale:        int(w.Scale),
		IntervalSize: w.IntervalSize,
		Checksum:     w.Checksum,
		Source:       w.Source,
		Segments:     w.Segments,
	}
}

// profileKeys is the key chain of steps 1–3 for one workload.
type profileKeys struct {
	bbv  artifact.Key
	sel  artifact.Key
	ckpt artifact.Key
}

// profileKeys returns the key chain of steps 1–3 under spec. The interval,
// clustering config and warm-up are resolved through the spec — the zero
// spec resolves to the legacy values — so only the key struct shape and
// schema number tell the two generations apart. The zero spec keeps the
// legacy shape, pinned byte-for-byte: pre-spec cache entries and
// fingerprints must keep resolving. Do not touch those structs. A non-zero
// spec rides in every stage key (features change the BBV payload and the
// clustering; warm-up policy changes the checkpoints), the resolved
// interval replaces the workload's implicit one in the identity, and the
// clustering key hashes the resolved simpoint.Config, so Dims/MaxK
// overrides are part of the chain.
func (r *Runner) profileKeys(w *workloads.Workload, spec sampling.Spec) profileKeys {
	ident := identOf(w)
	ident.IntervalSize = spec.ResolveInterval(w.IntervalSize)
	spCfg := r.simpointConfig(spec)
	warmup := spec.ResolveWarmup(ident.IntervalSize, r.fc.WarmupInsts)
	key := func(stage string, legacySchema, specSchema int, legacy, withSpec interface{}) artifact.Key {
		if spec.IsZero() {
			return artifact.NewKey(stage, legacySchema, legacy)
		}
		return artifact.NewKey(stage, specSchema, withSpec)
	}
	var k profileKeys
	k.bbv = key("bbv", bbvSchema, bbvSpecSchema, struct {
		Workload workloadIdent
	}{ident}, struct {
		Workload workloadIdent
		Sampling sampling.Spec
	}{ident, spec})
	k.sel = key("select", selectSchema, selectSpecSchema, struct {
		BBV    string
		Config simpoint.Config
	}{k.bbv.Hex(), spCfg}, struct {
		BBV      string
		Config   simpoint.Config
		Sampling sampling.Spec
	}{k.bbv.Hex(), spCfg, spec})
	ckpt := struct {
		BBV         string
		Select      string
		WarmupInsts int64
	}{k.bbv.Hex(), k.sel.Hex(), warmup}
	k.ckpt = key("checkpoint", ckptSchema, ckptSpecSchema, ckpt, ckpt)
	return k
}

func measureKey(profileKey string, cfg boom.Config, lib asap7.Library) artifact.Key {
	return artifact.NewKey("measure", measureSchema, struct {
		Profile string
		Config  boom.Config
		Lib     asap7.Library
	}{profileKey, cfg, lib})
}

func fullKey(w *workloads.Workload, cfg boom.Config, lib asap7.Library) artifact.Key {
	return artifact.NewKey("full", fullSchema, struct {
		Workload workloadIdent
		Config   boom.Config
		Lib      asap7.Library
	}{identOf(w), cfg, lib})
}

// stageCached runs one pipeline stage under the cache protocol: lookup →
// decode on hit, compute on miss → atomic write. With verification on, a
// hit additionally recomputes the stage and byte-compares the canonical
// payloads, failing loudly on divergence. The returned cost is the stage's
// compute wall-clock — the cached value on a hit, so cached and uncached
// runs report identical timing — and feeds Profile.WallNS /
// Result.MeasureWallNS.
//
// A zero key disables caching for the call (the stage just runs).
func (r *Runner) stageCached(key artifact.Key,
	decode func(payload []byte) error,
	compute func() error,
	encode func() ([]byte, error)) (costNS int64, err error) {

	var cached []byte
	var cachedCost int64
	hit := false
	if r.cache != nil && key.Stage != "" {
		cached, cachedCost, hit = r.cache.Get(key)
	}
	if hit && !r.verify {
		if decode(cached) == nil {
			return cachedCost, nil
		}
		// Undecodable despite an intact checksum (stale schema logic):
		// fall through, recompute, and overwrite the entry.
		hit = false
	}
	t0 := time.Now()
	if err := compute(); err != nil {
		return 0, err
	}
	computed := time.Since(t0).Nanoseconds()
	if r.cache == nil || key.Stage == "" {
		return computed, nil
	}
	fresh, err := encode()
	if err != nil {
		return 0, fmt.Errorf("encoding %s artifact: %w", key.Stage, err)
	}
	if hit { // verification pass
		if !bytes.Equal(fresh, cached) {
			if r.reg != nil {
				r.reg.Counter("artifact.verify.fail").Inc()
			}
			return 0, fmt.Errorf("cache verify: artifact %s diverges from recomputation (cached %d bytes, fresh %d bytes)",
				key, len(cached), len(fresh))
		}
		if r.reg != nil {
			r.reg.Counter("artifact.verify.ok").Inc()
		}
		return cachedCost, nil
	}
	if err := r.cache.Put(key, fresh, computed); err != nil {
		// A failed write is environmental (disk, permissions, injected
		// chaos) — the stage itself computed fine — so mark it retryable.
		return 0, Transient(fmt.Errorf("caching %s artifact: %w", key.Stage, err))
	}
	return computed, nil
}

// wrapStage attaches flow identity to err unless it already carries one.
func wrapStage(stage, workload, config string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Workload: workload, Config: config, Err: err}
}

// --- Stage payload codecs. All are canonical: one value, one byte
// stream. The BBV payload reuses the SimPoint 3.0 .bb text format (it is
// already deterministic and interoperable); the rest are binary.

// encodeBBVPayloadSpec encodes the profile stage's payload under a
// sampling spec: total instructions, block count and the .bb body,
// followed — only under a bbv+mav spec — by a .mav-format section holding
// the per-interval memory-access vectors. Zero-spec payloads are the
// legacy layout byte for byte (the spec-bearing key schema keeps the two
// generations from ever sharing an entry, so the section's presence is
// fully determined by the key).
func encodeBBVPayloadSpec(vectors []bbv.Vector, mavs []mav.Vector, totalInsts uint64, numBlocks int, spec sampling.Spec) ([]byte, error) {
	var body bytes.Buffer
	if err := bbv.WriteBB(&body, vectors); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(totalInsts)
	bw.Int(numBlocks)
	bw.Bytes(body.Bytes())
	if spec.UseMAV() {
		body.Reset()
		if err := mav.WriteMAV(&body, mavs); err != nil {
			return nil, err
		}
		bw.Bytes(body.Bytes())
	}
	return buf.Bytes(), bw.Err()
}

func decodeBBVPayloadSpec(payload []byte, spec sampling.Spec) (vectors []bbv.Vector, mavs []mav.Vector, totalInsts uint64, numBlocks int, err error) {
	rd := bytes.NewReader(payload)
	br := binio.NewReader(rd)
	totalInsts = br.U64()
	numBlocks = br.Int()
	body := br.Bytes(maxCachedLen)
	var mavBody []byte
	if spec.UseMAV() {
		mavBody = br.Bytes(maxCachedLen)
	}
	if err := br.Err(); err != nil {
		return nil, nil, 0, 0, err
	}
	vectors, err = bbv.ReadBB(bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if spec.UseMAV() {
		mavs, err = mav.ReadMAV(bytes.NewReader(mavBody))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if len(mavs) != len(vectors) {
			return nil, nil, 0, 0, fmt.Errorf("bbv payload has %d MAV intervals for %d BBV intervals", len(mavs), len(vectors))
		}
	}
	return vectors, mavs, totalInsts, numBlocks, nil
}

// Checkpoint payloads embed full memory page images, which are large but
// extremely repetitive (zeroed pages, data segments duplicated into every
// checkpoint), so the body is flate-compressed. BestSpeed already shrinks
// the worst case (tarfind's ~19 MB filesystem image × every simpoint,
// ~370 MB raw) by two orders of magnitude, which is what keeps warm-cache
// sweeps fast: the dominant cost of a warm profile is reading this entry.
func encodeCkptPayload(cks []*ckpt.Checkpoint, warmups []int64) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	bw := binio.NewWriter(fw)
	bw.Int(len(warmups))
	for _, v := range warmups {
		bw.I64(v)
	}
	if err := bw.Err(); err != nil {
		return nil, err
	}
	if err := ckpt.SerializeAll(fw, cks); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCkptPayload(payload []byte, wantPoints int) (cks []*ckpt.Checkpoint, warmups []int64, err error) {
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	rd := bufio.NewReaderSize(io.LimitReader(fr, maxCkptRawLen), 1<<16)
	br := binio.NewReader(rd)
	warmups = make([]int64, br.Len(maxCachedLen))
	for i := range warmups {
		warmups[i] = br.I64()
	}
	if err := br.Err(); err != nil {
		return nil, nil, err
	}
	cks, err = ckpt.DeserializeAll(rd)
	if err != nil {
		return nil, nil, err
	}
	if len(cks) != len(warmups) || len(cks) != wantPoints {
		return nil, nil, fmt.Errorf("checkpoint payload has %d checkpoints / %d warm-ups for %d simpoints",
			len(cks), len(warmups), wantPoints)
	}
	return cks, warmups, nil
}

// encodeResultPayload serializes the measured portion of a Result: the
// identity fields (workload, suite, config, mode) live in the key chain,
// and MeasureWallNS travels as the artifact's cost, not its content.
func encodeResultPayload(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U64(res.TotalInsts)
	bw.I64(res.IntervalSize)
	bw.Int(res.NumPoints)
	bw.F64(res.Coverage)
	bw.Int(res.K)
	bw.U64(res.DetailedInsts)
	bw.Int(len(res.Slots))
	for _, s := range res.Slots {
		bw.F64(s)
	}
	bw.Int(len(res.Points))
	for _, p := range res.Points {
		bw.I64(p.Interval)
		bw.F64(p.Weight)
		bw.F64(p.IPC)
		bw.F64(p.PowerMW)
	}
	if err := bw.Err(); err != nil {
		return nil, err
	}
	if err := boom.EncodeStats(&buf, res.Stats); err != nil {
		return nil, err
	}
	if err := power.EncodeReport(&buf, res.Power); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeResultPayload(payload []byte, res *Result) error {
	rd := bytes.NewReader(payload)
	br := binio.NewReader(rd)
	res.TotalInsts = br.U64()
	res.IntervalSize = br.I64()
	res.NumPoints = br.Int()
	res.Coverage = br.F64()
	res.K = br.Int()
	res.DetailedInsts = br.U64()
	res.Slots = make([]float64, br.Len(maxCachedLen))
	for i := range res.Slots {
		res.Slots[i] = br.F64()
	}
	res.Points = make([]PointResult, br.Len(maxCachedLen))
	for i := range res.Points {
		res.Points[i].Interval = br.I64()
		res.Points[i].Weight = br.F64()
		res.Points[i].IPC = br.F64()
		res.Points[i].PowerMW = br.F64()
	}
	if err := br.Err(); err != nil {
		return err
	}
	var err error
	if res.Stats, err = boom.DecodeStats(rd); err != nil {
		return err
	}
	if res.Power, err = power.DecodeReport(rd); err != nil {
		return err
	}
	return nil
}
