package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/faultinject"
)

// layerDamaged reports whether layer l lost any plane.
func layerDamaged(r *DecodeReport, l int) bool {
	return slices.ContainsFunc(r.Damaged, func(d LayerDamage) bool { return d.Layer == l })
}

// checksummedStack builds a multi-chunk checksummed encode: 3 layers of
// 256×256 split into 128×128 frames → 4 planes per layer, 12 planes total,
// grouped two-per-chunk (2 × 16384 px reaches the chunk floor) → 6 chunks.
func checksummedStack(t testing.TB) ([]*Tensor, Options, *Encoded) {
	t.Helper()
	stack := []*Tensor{
		weightTensor(21, 256, 256),
		weightTensor(22, 256, 256),
		weightTensor(23, 256, 256),
	}
	o := DefaultOptions()
	o.MaxFrameW, o.MaxFrameH = 128, 128
	o.Checksum = true
	o.Workers = 2
	e, err := o.EncodeStackCtx(context.Background(), stack, 28)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stream[4] != 3 {
		t.Fatalf("Checksum option emitted container version %d, want 3", e.Stream[4])
	}
	return stack, o, e
}

// TestChecksumOptionRoundTrip: the hardened container decodes to exactly the
// tensors the plain one does, and costs only the CRC framing extra.
func TestChecksumOptionRoundTrip(t *testing.T) {
	stack, o, e := checksummedStack(t)

	plain := o
	plain.Checksum = false
	pe, err := plain.EncodeStackCtx(context.Background(), stack, 28)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatalf("checksummed decode: %v", err)
	}
	pdec, err := plain.DecodeStackCtx(context.Background(), pe)
	if err != nil {
		t.Fatalf("plain decode: %v", err)
	}
	for l := range dec {
		if dec[l].MSE(pdec[l]) != 0 {
			t.Fatalf("layer %d differs between checksummed and plain decode", l)
		}
	}
	// v3 overhead: 4 bytes per chunk (payload CRC) + 4 (header CRC), plus the
	// v2→v3 table delta; it must stay tiny relative to the payload.
	if extra := len(e.Stream) - len(pe.Stream); extra <= 0 || extra > 8+12*e.Stats.Chunks {
		t.Fatalf("v3 overhead %d bytes over %d chunks", extra, e.Stats.Chunks)
	}
}

// TestDecodeStackPartialDamagedChunk corrupts one payload byte of a
// checksummed stream and checks the graceful-degradation contract: the
// damaged chunk is reported with ErrChecksum, every undamaged layer matches
// the clean decode exactly, and damaged layers are zero-filled only in the
// regions the failed chunk covered.
func TestDecodeStackPartialDamagedChunk(t *testing.T) {
	_, o, e := checksummedStack(t)
	clean, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}

	bad := &Encoded{}
	*bad = *e
	bad.Stream = append([]byte(nil), e.Stream...)
	bad.Stream[len(bad.Stream)-64] ^= 0x20 // inside the last chunk's payload

	ts, report, err := o.DecodeStackPartialCtx(context.Background(), bad)
	if err != nil {
		t.Fatalf("top-level error: %v", err)
	}
	if report.Complete() || report.FailedChunks != 1 || len(report.ChunkErrors) != 1 {
		t.Fatalf("report: %+v", report)
	}
	if !errors.Is(report.ChunkErrors[0], ErrChecksum) {
		t.Fatalf("chunk error %v, want ErrChecksum", report.ChunkErrors[0])
	}
	if report.RecoveredPlanes != report.TotalPlanes-report.ChunkErrors[0].PlaneCount {
		t.Fatalf("recovered %d of %d planes, lost chunk holds %d",
			report.RecoveredPlanes, report.TotalPlanes, report.ChunkErrors[0].PlaneCount)
	}
	if len(report.Damaged) == 0 {
		t.Fatal("no damaged layers reported")
	}
	for l, tensor := range ts {
		if layerDamaged(report, l) {
			// The damaged layer must still be present (zero-filled regions),
			// and differ from the clean decode.
			if tensor == nil {
				t.Fatalf("damaged layer %d returned nil", l)
			}
			if tensor.MSE(clean[l]) == 0 {
				t.Fatalf("layer %d reported damaged but matches clean decode", l)
			}
		} else if tensor.MSE(clean[l]) != 0 {
			t.Fatalf("undamaged layer %d differs from clean decode", l)
		}
	}

	// The strict path must refuse the same stream with a checksum error.
	if _, err := o.DecodeStackCtx(context.Background(), bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("strict decode of damaged stream: %v, want ErrChecksum", err)
	}
}

// TestDecodeStackPartialCleanStream: on intact input the partial decoder is
// a drop-in for DecodeStack.
func TestDecodeStackPartialCleanStream(t *testing.T) {
	_, o, e := checksummedStack(t)
	strict, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	ts, report, err := o.DecodeStackPartialCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() || report.RecoveredPlanes != report.TotalPlanes {
		t.Fatalf("clean stream reported loss: %+v", report)
	}
	for l := range strict {
		if strict[l].MSE(ts[l]) != 0 {
			t.Fatalf("layer %d differs", l)
		}
	}
}

// TestMarshalTruncationSweep: every strict prefix of a marshalled container
// is rejected with a typed error — through UnmarshalEncoded alone, with no
// panics and no silent acceptances.
func TestMarshalTruncationSweep(t *testing.T) {
	_, _, e := checksummedStack(t)
	data := e.Marshal()
	dec := func(b []byte) error {
		ee, err := UnmarshalEncoded(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped error %v", err)
			}
			return err
		}
		// A prefix that unmarshals must still fail stack decode: the codec
		// stream inside it is incomplete.
		_, err = DefaultOptions().DecodeStackCtx(context.Background(), ee)
		return err
	}
	res := faultinject.TruncationSweep(data, dec)
	if !res.Clean() {
		t.Fatalf("%d/%d trials panicked, first %v: %v",
			len(res.Panics), res.Trials, res.Panics[0], res.Panics[0].Panic)
	}
	if len(res.Silent) != 0 {
		t.Fatalf("%d prefixes accepted, first %v", len(res.Silent), res.Silent[0])
	}
}

// TestMarshalBitFlipSweepNeverPanics: single-bit flips across the marshalled
// container never panic the unmarshal+decode path. (Flips in the float
// metadata tables are not detectable — the CRC coverage is the codec stream —
// so only the panic-free property is asserted here.)
func TestMarshalBitFlipSweepNeverPanics(t *testing.T) {
	_, o, e := checksummedStack(t)
	data := e.Marshal()
	dec := func(b []byte) error {
		ee, err := UnmarshalEncoded(b)
		if err != nil {
			return err
		}
		_, err = o.DecodeStackCtx(context.Background(), ee)
		return err
	}
	res := faultinject.BitFlipSweep(data, 7, dec) // every bit of every 7th byte
	if !res.Clean() {
		t.Fatalf("%d/%d trials panicked, first %v: %v",
			len(res.Panics), res.Trials, res.Panics[0], res.Panics[0].Panic)
	}
}

// TestForgedMetadataRejected: impossible header fields are typed errors, not
// allocations or panics.
func TestForgedMetadataRejected(t *testing.T) {
	for name, e := range map[string]*Encoded{
		"huge layer":     {Layers: 1, Rows: 1 << 15, Cols: 1 << 15, MaxFrameW: 1024, MaxFrameH: 1024, QP: 20, Scales: []float32{1}, Zeros: []float32{0}},
		"plane blowup":   {Layers: 1 << 20, Rows: 1024, Cols: 1024, MaxFrameW: 1, MaxFrameH: 1, QP: 20},
		"zero dims":      {Layers: 0, Rows: 0, Cols: 0, MaxFrameW: 1, MaxFrameH: 1},
		"metadata short": {Layers: 4, Rows: 8, Cols: 8, MaxFrameW: 8, MaxFrameH: 8, QP: 20, Scales: []float32{1}, Zeros: []float32{0}},
	} {
		if _, err := DefaultOptions().DecodeStackCtx(context.Background(), e); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
		if _, _, err := DefaultOptions().DecodeStackPartialCtx(context.Background(), e); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s partial: got %v, want ErrCorrupt", name, err)
		}
	}
}
