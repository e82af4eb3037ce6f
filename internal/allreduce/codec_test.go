package allreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// FuzzSegmentDecode drives hostile payloads at hostile geometries into each
// segment codec's Decode, the receive path a ring worker runs. The contract
// under fuzzing is "never panic, typed errors only" — the same bar every
// other decode surface in the repo meets.
func FuzzSegmentDecode(f *testing.F) {
	ctx := context.Background()
	decoders := []SegmentCodec{
		RawCodec()(0),
		TensorCodec(core.DefaultOptions(), 20)(0),
		RTNCodec(3, 32)(0),
		SignCodec(0)(0),
	}
	// Seed with each codec's valid payload, and the sign codec's warm-up
	// phase too, so the fuzzer starts deep.
	vals := randBuckets(17, 1, 4, 16)[0]
	seed := func(idx int, c SegmentCodec) {
		payload, _, _, err := c.Encode(ctx, vals, 4, 16)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(uint8(idx), uint8(4), uint8(16), payload)
	}
	for i, c := range decoders {
		seed(i, c)
	}
	seed(3, SignCodec(1)(0))
	f.Add(uint8(2), uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, idx, rows, cols uint8, payload []byte) {
		dst := make([]float32, int(rows)*int(cols))
		err := decoders[int(idx)%len(decoders)].Decode(ctx, payload, int(rows), int(cols), dst)
		if err != nil && !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrTruncated) &&
			!errors.Is(err, codec.ErrChecksum) {
			t.Fatalf("codec %d, %dx%d: untyped error %v", idx, rows, cols, err)
		}
	})
}

// TestSegmentDecodeErrorTaxonomy pins which error each malformed payload
// earns from its codec's Decode. FuzzSegmentDecode holds every hostile input
// to typed-or-nil; this says which type, for the cases a ring could meet:
// a payload cut short, one with bytes past its end, one decoded at the wrong
// geometry, and one whose header fields are out of range.
func TestSegmentDecodeErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	const rows, cols = 4, 16
	vals := randBuckets(29, 1, rows, cols)[0]
	valid := func(c SegmentCodec) []byte {
		payload, _, _, err := c.Encode(ctx, vals, rows, cols)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return payload
	}
	raw := RawCodec()(0)
	tensor := TensorCodec(core.DefaultOptions(), 20)(0)
	rtn := RTNCodec(3, 32)(0)
	sign, warm := SignCodec(0)(0), SignCodec(1)(0)
	rawP, tensorP, rtnP, signP, warmP := valid(raw), valid(tensor), valid(rtn), valid(sign), valid(warm)
	edit := func(p []byte, at int, b byte) []byte {
		q := append([]byte(nil), p...)
		q[at] = b
		return q
	}
	nan := math.Float32bits(float32(math.NaN()))
	for _, c := range []struct {
		name       string
		codec      SegmentCodec
		payload    []byte
		rows, cols int
		want       error
	}{
		{"raw/truncated", raw, rawP[:len(rawP)-4], rows, cols, codec.ErrCorrupt},
		{"raw/trailing bytes", raw, append(append([]byte(nil), rawP...), 0xAA), rows, cols, codec.ErrCorrupt},
		{"tensor/empty", tensor, nil, rows, cols, codec.ErrTruncated},
		{"tensor/bad magic", tensor, edit(tensorP, 0, 'X'), rows, cols, codec.ErrCorrupt},
		{"tensor/short header", tensor, tensorP[:10], rows, cols, codec.ErrTruncated},
		{"tensor/wrong geometry", tensor, tensorP, 2 * rows, cols, codec.ErrCorrupt},
		{"rtn/short header", rtn, rtnP[:2], rows, cols, codec.ErrTruncated},
		{"rtn/zero group", rtn, edit(edit(rtnP, 1, 0), 2, 0), rows, cols, codec.ErrCorrupt},
		{"rtn/truncated", rtn, rtnP[:len(rtnP)-1], rows, cols, codec.ErrTruncated},
		{"rtn/trailing bytes", rtn, append(append([]byte(nil), rtnP...), 0xAA), rows, cols, codec.ErrCorrupt},
		{"rtn/NaN range", rtn, func() []byte {
			q := append([]byte(nil), rtnP...)
			binary.LittleEndian.PutUint32(q[rtnHeaderLen:], nan)
			return q
		}(), rows, cols, codec.ErrCorrupt},
		{"sign/empty", sign, nil, rows, cols, codec.ErrTruncated},
		{"sign/bad phase", sign, edit(signP, 0, 0x7F), rows, cols, codec.ErrCorrupt},
		{"sign/negative scale", sign, func() []byte {
			q := append([]byte(nil), signP...)
			binary.LittleEndian.PutUint32(q[1:], math.Float32bits(-1))
			return q
		}(), rows, cols, codec.ErrCorrupt},
		{"sign/wrong geometry", sign, signP, rows, 2 * cols, codec.ErrCorrupt},
		{"sign/warmup truncated", warm, warmP[:len(warmP)-1], rows, cols, codec.ErrCorrupt},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst := make([]float32, c.rows*c.cols)
			err := c.codec.Decode(ctx, c.payload, c.rows, c.cols, dst)
			if !errors.Is(err, c.want) {
				t.Fatalf("Decode = %v, want %v", err, c.want)
			}
		})
	}
	// The valid payloads decode: every case above is one edit from a good one.
	for i, p := range [][]byte{rawP, tensorP, rtnP, signP, warmP} {
		c := []SegmentCodec{raw, tensor, rtn, sign, warm}[i]
		if err := c.Decode(ctx, p, rows, cols, make([]float32, rows*cols)); err != nil {
			t.Fatalf("valid payload %d: %v", i, err)
		}
	}
}
