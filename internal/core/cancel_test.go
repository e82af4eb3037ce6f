package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// cancelAfterProbe is a context that cancels itself the first time it is
// asked for its error once a rate-control search has completed a probe: the
// deterministic "client hangs up mid-search".
type cancelAfterProbe struct {
	context.Context
	cancel context.CancelFunc
	probes *obs.Counter
}

func (c cancelAfterProbe) Err() error {
	if c.probes.Value() >= 1 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancellationTable runs every ctx-first method of the surface under a
// context that is already done (cancelled, and past its deadline) and, for
// the two searches, under one cancelled right after the first probe. The
// answer is always the bare ctx.Err() — never wrapped, never a member of the
// decode-error taxonomy — with no output; a search spends no probe after the
// cancel; and a cancelled decode is not a decode error: core.decode.errors
// stays 0 (codec.decode.errors.canceled is the counter for it).
func TestCancellationTable(t *testing.T) {
	stack := []*Tensor{weightTensor(61, 64, 64), weightTensor(62, 64, 64)}
	enc, err := DefaultOptions().EncodeStackCtx(context.Background(), stack, 30)
	if err != nil {
		t.Fatal(err)
	}
	canceled := func(*obs.Registry) context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	expired := func(*obs.Registry) context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		t.Cleanup(cancel)
		return ctx
	}
	afterProbe := func(reg *obs.Registry) context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		return cancelAfterProbe{ctx, cancel, reg.Counter("core.ratecontrol.probes")}
	}
	methods := []struct {
		name   string
		search bool
		call   func(o Options, ctx context.Context) (output bool, err error)
	}{
		{"EncodeStackCtx", false, func(o Options, ctx context.Context) (bool, error) {
			e, err := o.EncodeStackCtx(ctx, stack, 30)
			return e != nil, err
		}},
		{"EncodeStackToBitrate", true, func(o Options, ctx context.Context) (bool, error) {
			e, rec, err := o.EncodeStackToBitrate(ctx, stack, 2.5)
			return e != nil || rec != nil, err
		}},
		{"EncodeStackToMSE", true, func(o Options, ctx context.Context) (bool, error) {
			e, rec, err := o.EncodeStackToMSE(ctx, stack, 1e-4)
			return e != nil || rec != nil, err
		}},
		{"DecodeStackCtx", false, func(o Options, ctx context.Context) (bool, error) {
			ts, err := o.DecodeStackCtx(ctx, enc)
			return ts != nil, err
		}},
		{"DecodeLayerCtx", false, func(o Options, ctx context.Context) (bool, error) {
			l, err := o.DecodeLayerCtx(ctx, enc, 1)
			return l != nil, err
		}},
		{"DecodeStackPartialCtx", false, func(o Options, ctx context.Context) (bool, error) {
			ts, rep, err := o.DecodeStackPartialCtx(ctx, enc)
			return ts != nil || rep != nil, err
		}},
	}
	for _, m := range methods {
		for _, when := range []struct {
			name   string
			ctx    func(*obs.Registry) context.Context
			probes int64
		}{{"canceled", canceled, 0}, {"expired", expired, 0}, {"after first probe", afterProbe, 1}} {
			if when.probes > 0 && !m.search {
				continue
			}
			t.Run(m.name+"/"+when.name, func(t *testing.T) {
				o := DefaultOptions()
				o.Metrics = obs.NewRegistry()
				ctx := when.ctx(o.Metrics)
				output, err := m.call(o, ctx)
				if err == nil || err != ctx.Err() {
					t.Fatalf("err = %v, want exactly %v", err, ctx.Err())
				}
				if output {
					t.Error("a cancelled call returned output")
				}
				counters := o.Metrics.Snapshot().Counters
				if got := counters["core.ratecontrol.probes"]; got != when.probes {
					t.Errorf("search spent %d probes, want %d", got, when.probes)
				}
				if got := counters["core.decode.errors"]; got != 0 {
					t.Errorf("core.decode.errors = %d after a cancellation, want 0", got)
				}
			})
		}
	}
}
