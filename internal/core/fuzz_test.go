package core

import (
	"context"
	"errors"
	"testing"
)

// typedOrNil fails when a decode error escapes the taxonomy.
func typedOrNil(t *testing.T, label string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("%s: untyped error %v", label, err)
	}
}

// FuzzDecodeStack drives the full stack-decode path — UnmarshalEncoded,
// metadata validation, codec decode, plane reassembly, dequantization — with
// arbitrary bytes. Invariants: no panic anywhere, every rejection is typed,
// and when the strict path accepts, the partial path agrees and reports a
// complete recovery.
func FuzzDecodeStack(f *testing.F) {
	stack := []*Tensor{weightTensor(7, 96, 96), weightTensor(8, 96, 96)}
	o := DefaultOptions()
	o.MaxFrameW, o.MaxFrameH = 64, 64
	for _, checksum := range []bool{false, true} {
		o.Checksum = checksum
		e, err := o.EncodeStackCtx(context.Background(), stack, 30)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(e.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte("L265T\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEncoded(data)
		typedOrNil(t, "unmarshal", err)
		if err != nil {
			return
		}
		opts := DefaultOptions()
		opts.Workers = 1
		ts, strictErr := opts.DecodeStackCtx(context.Background(), e)
		typedOrNil(t, "decode", strictErr)

		pts, report, partialErr := opts.DecodeStackPartialCtx(context.Background(), e)
		typedOrNil(t, "partial", partialErr)
		if partialErr == nil {
			for _, ce := range report.ChunkErrors {
				typedOrNil(t, "chunk", ce.Err)
			}
		}
		if strictErr == nil {
			if partialErr != nil {
				t.Fatalf("strict accepted but partial rejected: %v", partialErr)
			}
			if !report.Complete() {
				t.Fatalf("strict accepted but partial reports loss: %+v", report)
			}
			if len(pts) != len(ts) {
				t.Fatalf("tensor counts: strict %d, partial %d", len(ts), len(pts))
			}
		}
	})
}
