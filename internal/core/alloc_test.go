package core

import (
	"context"
	"runtime"
	"testing"
)

// encodeBytesPerOp is the heap bytes one EncodeStack call allocates at steady
// state (Workers 1): the least of several single calls, so that a call which
// had to rebuild the pooled codec scratch — after a GC emptied the pool, or
// because the race detector makes sync.Pool drop a quarter of its Puts — does
// not count. TotalAlloc is process-wide, so — as testing.AllocsPerRun does —
// the calls run on one P, and the test must not be made t.Parallel.
func encodeBytesPerOp(t *testing.T, o Options, stack []*Tensor) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		if _, err := o.EncodeStackCtx(context.Background(), stack, 30); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return float64(least)
}

// TestEncodeStackPerLayerBytes pins what one more layer costs the heap. The
// hot path is allocation-free (internal/codec's differential tests), so a
// layer's bytes are its whole-plane buffers: the quantised pixels, the frame
// plane copied from them and the reconstruction the codec hands back — three
// planes, plus a stream far smaller than one. The differential (five layers
// against one) cancels the per-call costs, so a stray buffer per layer — a
// plane allocated and then dropped for the one quant.ToUint8 returns, say —
// shows as a whole extra rows×cols: 4.2 planes against 3.2, and the bound sits
// halfway.
func TestEncodeStackPerLayerBytes(t *testing.T) {
	const rows, cols = 128, 128
	stack := make([]*Tensor, 5)
	for i := range stack {
		stack[i] = weightTensor(int64(40+i), rows, cols)
	}
	o := DefaultOptions()
	o.Workers = 1
	perLayer := (encodeBytesPerOp(t, o, stack) - encodeBytesPerOp(t, o, stack[:1])) / 4
	if planes := perLayer / (rows * cols); planes > 3.7 {
		t.Errorf("one more %dx%d layer allocates %.0f bytes = %.2f planes, want about 3.2 (pixels, frame plane, reconstruction, stream)",
			rows, cols, perLayer, planes)
	}
}

// TestMarshalOneAllocation pins Encoded.Marshal at its one exact-size buffer,
// whatever the metadata count — one (scale, zero) pair per row under
// PerRowQuant — so a per-field or per-pair write that allocates shows here.
func TestMarshalOneAllocation(t *testing.T) {
	o := DefaultOptions()
	o.PerRowQuant = true
	enc := encode1(t, o, weightTensor(45, 128, 128), 30)
	var out []byte
	if allocs := testing.AllocsPerRun(20, func() { out = enc.Marshal() }); allocs != 1 {
		t.Errorf("Marshal makes %.0f allocations for %d metadata pairs, want 1", allocs, len(enc.Scales))
	}
	if len(out) != cap(out) {
		t.Errorf("Marshal sized its buffer at %d bytes for %d", cap(out), len(out))
	}
}

// TestDecodeStackPerLayerAllocs pins what one more layer costs a decode in
// allocations: its chunk's planes and bin reader, and one tensor. Dequantising
// through a fresh slice per row used to make that a row count (266 a layer at
// 256 rows); the differential (five layers against one) cancels the per-call
// costs, and the least of several calls discounts a rebuilt codec scratch, as
// in encodeBytesPerOp.
func TestDecodeStackPerLayerAllocs(t *testing.T) {
	const rows, cols = 256, 256 // one chunk per layer
	stack := make([]*Tensor, 5)
	for i := range stack {
		stack[i] = weightTensor(int64(50+i), rows, cols)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, perRow := range []bool{false, true} {
		o := DefaultOptions()
		o.Workers, o.PerRowQuant = 1, perRow
		allocs := func(stack []*Tensor) float64 {
			enc, err := o.EncodeStackCtx(context.Background(), stack, 30)
			if err != nil {
				t.Fatal(err)
			}
			least := ^uint64(0)
			var before, after runtime.MemStats
			for i := 0; i < 8; i++ {
				runtime.ReadMemStats(&before)
				if _, err := o.DecodeStackCtx(context.Background(), enc); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if d := after.Mallocs - before.Mallocs; d < least {
					least = d
				}
			}
			return float64(least)
		}
		whole := allocs(stack)
		if perLayer := (whole - allocs(stack[:1])) / 4; perLayer > 10 {
			t.Errorf("perRow=%v: one more %dx%d layer costs a decode %.1f allocations, want <= 10", perRow, rows, cols, perLayer)
		}
		if whole > 50 {
			t.Errorf("perRow=%v: a 5-layer decode makes %.0f allocations, want <= 50", perRow, whole)
		}
		t.Logf("perRow=%v: %.0f allocations for 5 layers", perRow, whole)
	}
}
