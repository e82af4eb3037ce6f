package codec_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tensorgen"
)

// trailerOptions frames a 64×192 layer as three 64×64 planes: the geometry
// of codec.IndexedStream's region table.
func trailerOptions() core.Options {
	o := core.DefaultOptions()
	o.MaxFrameW, o.MaxFrameH = 64, 64
	o.Workers = 2
	return o
}

func requireTensorsEqual(t *testing.T, label string, got, want []*core.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layers, want %d", label, len(got), len(want))
	}
	for l := range got {
		for i := range got[l].Data {
			if got[l].Data[i] != want[l].Data[i] {
				t.Fatalf("%s: layer %d value %d differs", label, l, i)
			}
		}
	}
}

// TestTrailerStoreRoundTrip: the stream at rest packs into a manifest with a
// Trailer blob, fetches back byte for byte, and serves each layer through the
// store's LRU as the trailer-free twin decodes it.
func TestTrailerStoreRoundTrip(t *testing.T) {
	data, _ := codec.IndexedStream(t)
	lay, err := codec.Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	enc := &core.Encoded{
		Layers: 3, Rows: 64, Cols: 192, MaxFrameW: 64, MaxFrameH: 64, QP: 30,
		Scales: []float32{0.01, 0.02, 0.03}, Zeros: []float32{-1, -2, -3},
		Stream: data,
	}
	twin := *enc
	twin.Stream = data[:lay.TrailerOff]
	o := trailerOptions()
	want, err := o.DecodeStackCtx(context.Background(), &twin)
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	man, err := s.Pack("at-rest", []store.PackEntry{{Name: "w", Enc: enc}})
	if err != nil {
		t.Fatal(err)
	}
	if tm := man.Tensors[0]; tm.Trailer.Length != lay.TrailerLen || len(tm.Chunks) != len(lay.Entries) {
		t.Fatalf("manifest %+v, want %d chunks and a %d-byte trailer blob", tm, len(lay.Entries), lay.TrailerLen)
	}
	fetched, err := s.Fetch("at-rest")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched["w"].Stream, data) {
		t.Fatal("fetched stream differs from the packed one")
	}
	m, err := s.OpenModel("at-rest", o, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*core.Tensor, enc.Layers)
	for l := range got {
		if got[l], err = m.Layer("w", l); err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
	}
	requireTensorsEqual(t, "store layers", got, want)
}

// TestTrailerForgedIsInert: a trailer with a valid CRC whose region table
// lies about the plane→layer mapping changes nothing any core decode path
// returns — every path reads the geometry from the metadata and the chunk
// table, never from a trailer.
func TestTrailerForgedIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stack := make([]*core.Tensor, 5)
	for i := range stack {
		stack[i] = core.FromSlice(64, 192, tensorgen.Weights(rng, 64, 192))
	}
	o := trailerOptions()
	o.Checksum = true
	e, err := o.EncodeStackCtx(context.Background(), stack, 28)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([][5]int, 15)
	for i := range truth {
		truth[i] = [5]int{i / 3, (i % 3) * 64, 0, 64, 64}
	}
	forge := func(mutate func(r [][5]int)) []byte {
		r := append([][5]int(nil), truth...)
		mutate(r)
		return codec.AppendOldTrailer(t, e.Stream, r)
	}
	for name, stream := range map[string][]byte{
		"true regions":           forge(func([][5]int) {}),
		"layer out of range":     forge(func(r [][5]int) { r[0][0] = 99 }),
		"negative-looking layer": forge(func(r [][5]int) { r[0][0] = 1 << 30 }),
		"swapped layers":         forge(func(r [][5]int) { r[0][0], r[3][0] = r[3][0], r[0][0] }),
		"shifted rect":           forge(func(r [][5]int) { r[1][1] += 64 }),
	} {
		forged := *e
		forged.Stream = stream
		got, err := o.DecodeStackCtx(context.Background(), &forged)
		if err != nil {
			t.Fatalf("%s: DecodeStackCtx: %v", name, err)
		}
		requireTensorsEqual(t, name+" DecodeStackCtx", got, clean)
		got, report, err := o.DecodeStackPartialCtx(context.Background(), &forged)
		if err != nil || report.FailedChunks != 0 {
			t.Fatalf("%s: DecodeStackPartialCtx: %v, %+v", name, err, report)
		}
		requireTensorsEqual(t, name+" DecodeStackPartialCtx", got, clean)
		for l := range got {
			if got[l], err = o.DecodeLayerCtx(context.Background(), &forged, l); err != nil {
				t.Fatalf("%s: DecodeLayerCtx(%d): %v", name, l, err)
			}
		}
		requireTensorsEqual(t, name+" DecodeLayerCtx", got, clean)
	}
}
