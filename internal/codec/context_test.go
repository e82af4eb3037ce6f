package codec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// The cancellation regression suite pins the DESIGN.md §12 contract: a
// canceled encode or decode returns exactly ctx.Err() with no output, it does
// so promptly (the CTU-level poll bounds latency far below the serve layer's
// 100ms budget), and a background context leaves the output bytes — and the
// allocation profile — untouched.

// cancelPlanes builds a workload big enough that a full encode takes many
// CTU times, so mid-flight cancellation has something to interrupt.
func cancelPlanes(tb testing.TB) []*frame.Plane {
	tb.Helper()
	rng := rand.New(rand.NewSource(77))
	planes := make([]*frame.Plane, 8)
	for i := range planes {
		planes[i] = noisePlane(rng, 256, 256)
	}
	return planes
}

// cancelOnPoll is a cancellable context that cancels itself on its n-th Err
// poll, so a test cancels a call at a fixed point inside it — after its
// entry check, once chunk workers are running — however fast the machine
// or loaded the scheduler. canceledAt records when the cancel fired.
type cancelOnPoll struct {
	context.Context
	cancel     context.CancelFunc
	n          int64
	polls      atomic.Int64
	canceledAt atomic.Pointer[time.Time]
}

func newCancelOnPoll(n int64) *cancelOnPoll {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelOnPoll{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == c.n {
		now := time.Now()
		c.canceledAt.Store(&now)
		c.cancel()
	}
	return c.Context.Err()
}

// TestEncodeCanceledPromptly: cancel an in-flight parallel encode — on its
// 16th context poll, inside the per-CTU loops (see cancelOnPoll) — and demand
// it returns context.Canceled well within the 100ms promptness budget, with
// no partial output.
func TestEncodeCanceledPromptly(t *testing.T) {
	planes := cancelPlanes(t)
	ctx := newCancelOnPoll(16)
	defer ctx.cancel()
	data, _, _, err := Encode(ctx, planes, EncodeConfig{QP: 30, Profile: HEVC, Tools: AllTools, Workers: 4})
	done := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d polls, want context.Canceled", err, ctx.polls.Load())
	}
	if data != nil {
		t.Errorf("canceled encode returned %d bytes, want nil", len(data))
	}
	if elapsed := done.Sub(*ctx.canceledAt.Load()); elapsed > 100*time.Millisecond {
		t.Errorf("canceled encode took %v after the cancel, want < 100ms", elapsed)
	}
	if !IsCancellation(err) {
		t.Errorf("IsCancellation(%v) = false, want true", err)
	}
}

// TestEncodePreCanceled: an already-canceled context must not run any part
// of the encode.
func TestEncodePreCanceled(t *testing.T) {
	planes := cancelPlanes(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name      string
		container Container
	}{
		{"parallel", ContainerLegacy},
		{"checksummed", ContainerV3},
	} {
		start := time.Now()
		data, _, _, err := Encode(ctx, planes, EncodeConfig{QP: 30, Profile: HEVC, Tools: AllTools, Workers: 2, Container: tc.container})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if data != nil {
			t.Errorf("%s: pre-canceled encode returned output", tc.name)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: pre-canceled encode took %v", tc.name, d)
		}
	}
}

// TestDecodeCanceledPromptly: cancel an in-flight decode and demand prompt
// return of the bare cancellation error. The cancel fires on the decode's
// 16th context poll — past the entry check and the chunk pickups, inside
// the per-CTU loops — rather than after a wall-clock sleep, which a fast or
// busy machine lets the whole decode outrun.
func TestDecodeCanceledPromptly(t *testing.T) {
	planes := cancelPlanes(t)
	data, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, AllTools, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCancelOnPoll(16)
	defer ctx.cancel()
	out, err := Decode(ctx, data, DecodeConfig{Workers: 4})
	done := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d polls, want context.Canceled", err, ctx.polls.Load())
	}
	if out != nil {
		t.Errorf("canceled decode returned %d planes, want nil", len(out.Planes))
	}
	if elapsed := done.Sub(*ctx.canceledAt.Load()); elapsed > 100*time.Millisecond {
		t.Errorf("canceled decode took %v after the cancel, want < 100ms", elapsed)
	}
}

// TestDeadlineExceededMapsCleanly: a deadline blowout surfaces as
// context.DeadlineExceeded, never wrapped into the decode-error taxonomy.
func TestDeadlineExceededMapsCleanly(t *testing.T) {
	planes := cancelPlanes(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, _, err := Encode(ctx, planes, EncodeConfig{QP: 30, Profile: HEVC, Tools: AllTools, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) {
		t.Errorf("cancellation error %v matches the decode taxonomy", err)
	}
	if !IsCancellation(err) {
		t.Errorf("IsCancellation(%v) = false, want true", err)
	}
}

// TestPartialDecodeCancellationWins: a Partial Decode must return ctx.Err()
// on cancellation, never a partial result whose "failures" are skipped
// chunks.
func TestPartialDecodeCancellationWins(t *testing.T) {
	planes := cancelPlanes(t)
	data, _, err := encodeAs(ContainerV3, planes, 30, HEVC, AllTools, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Decode(ctx, data, DecodeConfig{Workers: 4, Partial: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled partial decode returned a result with %d recovered planes", res.Recovered())
	}
}

// TestBackgroundContextByteIdentity: a cancellable context that never fires
// must leave the bytes exactly where context.Background() puts them — the
// nil-collapse in cancellable() only removes the polls, never changes what
// is coded. The equivalence matrix pins this across the whole config table;
// this test pins it pairwise on the decode side too.
func TestBackgroundContextByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	planes := []*frame.Plane{noisePlane(rng, 96, 64), gradientPlane(rng, 64, 96)}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []Container{ContainerLegacy, ContainerV3} {
		cfg := EncodeConfig{QP: 28, Profile: HEVC, Tools: AllTools, Workers: 2, Container: c}
		classic, _, _, err := Encode(context.Background(), planes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, _, _, err := Encode(live, planes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(classic, ctxed) {
			t.Errorf("container %d: bytes differ under a cancellable context", c)
		}
		// And the ctx-decoded planes must round-trip identically.
		a, err := decodeAll(classic, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decode(live, classic, DecodeConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(a[i].Pix, b.Planes[i].Pix) {
				t.Fatalf("container %d: plane %d pixels differ under a cancellable context", c, i)
			}
		}
	}
}

// TestCanceledMetricTaxonomy: a canceled decode bumps the dedicated
// errors.canceled counter, not the corrupt/truncated/checksum taxonomy.
func TestCanceledMetricTaxonomy(t *testing.T) {
	planes := cancelPlanes(t)
	data, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, AllTools, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	if _, err := Decode(ctx, data, DecodeConfig{Workers: 2, Metrics: reg}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["codec.decode.errors.canceled"]; got != 1 {
		t.Errorf("errors.canceled = %d, want 1", got)
	}
	for _, name := range []string{
		"codec.decode.errors.corrupt",
		"codec.decode.errors.truncated",
		"codec.decode.errors.checksum",
	} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("%s = %d, want 0 for a canceled call", name, got)
		}
	}
}

// TestIsCancellationClassification pins the helper's boundary: taxonomy
// errors are not cancellations and vice versa.
func TestIsCancellationClassification(t *testing.T) {
	for _, err := range []error{ErrCorrupt, ErrTruncated, ErrChecksum, errors.New("other")} {
		if IsCancellation(err) {
			t.Errorf("IsCancellation(%v) = true, want false", err)
		}
	}
	if !IsCancellation(context.Canceled) || !IsCancellation(context.DeadlineExceeded) {
		t.Error("IsCancellation must accept context.Canceled and DeadlineExceeded")
	}
	if IsCancellation(nil) {
		t.Error("IsCancellation(nil) = true")
	}
}
