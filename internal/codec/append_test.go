package codec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// appendPlanes builds n deterministic 32×16 planes (one plane = one 16-row
// flush group of a 32-wide session).
func appendPlanes(seed int64, n int) []*frame.Plane {
	rng := rand.New(rand.NewSource(seed))
	planes := make([]*frame.Plane, n)
	for i := range planes {
		planes[i] = gradientPlane(rng, 32, 16)
	}
	return planes
}

// appendSchedule feeds planes into app in batches given by sizes.
func appendSchedule(t *testing.T, app *Appender, planes []*frame.Plane, sizes []int) [][]byte {
	t.Helper()
	var all [][]byte
	off := 0
	for _, k := range sizes {
		payloads, st, err := app.Append(context.Background(), planes[off:off+k], nil)
		if err != nil {
			t.Fatalf("Append(%d planes at %d): %v", k, off, err)
		}
		if st.Chunks != k {
			t.Fatalf("Append(%d planes) reported %d chunks", k, st.Chunks)
		}
		all = append(all, payloads...)
		off += k
	}
	if off != len(planes) {
		t.Fatalf("schedule covers %d of %d planes", off, len(planes))
	}
	return all
}

// TestAppenderDecodeMatchesOneShot: at several worker counts, Decode of
// every appended payload returns exactly the planes a one-shot encode of the
// same stack decodes to — and Decode of any window of the payloads returns
// the matching crop.
func TestAppenderDecodeMatchesOneShot(t *testing.T) {
	planes := appendPlanes(11, 8)
	oneShot, _, err := encodeAs(ContainerV3, planes, 24, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeAll(oneShot, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		app := NewAppender(24, HEVC, AllTools, workers, nil)
		payloads := appendSchedule(t, app, planes, []int{1, 3, 2, 1, 1})
		got, err := app.Decode(context.Background(), 32, 16, payloads)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		requirePlanesEqual(t, "Decode vs one-shot", got, want)

		for _, win := range [][2]int{{0, 1}, {3, 2}, {7, 1}, {2, 6}} {
			got, err := app.Decode(context.Background(), 32, 16, payloads[win[0]:win[0]+win[1]])
			if err != nil {
				t.Fatalf("Decode[%d,+%d): %v", win[0], win[1], err)
			}
			requirePlanesEqual(t, "window Decode", got, want[win[0]:win[0]+win[1]])
		}
	}
}

// TestAppenderScheduleIndependentBytes: the payload bytes of appended planes
// depend only on the plane sequence, never on how the appends were batched —
// the contract that lets the kv tier key a chunk by the rows it encodes.
func TestAppenderScheduleIndependentBytes(t *testing.T) {
	planes := appendPlanes(23, 7)
	schedules := [][]int{{7}, {1, 1, 1, 1, 1, 1, 1}, {2, 3, 2}, {1, 6}}
	var refPayloads [][]byte
	for si, sizes := range schedules {
		app := NewAppender(24, HEVC, AllTools, 2, nil)
		payloads := appendSchedule(t, app, planes, sizes)
		if si == 0 {
			refPayloads = payloads
			continue
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("schedule %v: chunk %d payload differs", sizes, i)
			}
		}
	}
}

// TestAppenderConcurrent: one Appender shared by 8 goroutines (run under
// -race by `make race`) hands out payloads byte-equal to a serial run's.
func TestAppenderConcurrent(t *testing.T) {
	planes := appendPlanes(37, 16)
	app := NewAppender(24, HEVC, AllTools, 1, obs.NewRegistry())
	want := appendSchedule(t, app, planes, []int{16})
	got := make([][]byte, len(planes))
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(planes); i += 8 {
				payloads, _, err := app.Append(context.Background(), planes[i:i+1], nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = payloads[0]
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("plane %d: concurrent payload differs from the serial one", i)
		}
	}
}

// TestAppenderNeverReencodes is the acceptance-criteria counter proof: each
// Append advances codec.encode.chunks by exactly the planes it carried, and
// decoding the payloads for a read advances it by zero.
func TestAppenderNeverReencodes(t *testing.T) {
	planes := appendPlanes(5, 6)
	reg := obs.NewRegistry()
	chunks := func() int64 { return reg.Snapshot().Counters["codec.encode.chunks"] }

	app := NewAppender(24, HEVC, AllTools, 1, reg)
	var payloads [][]byte
	for i, k := range []int{1, 2, 3} {
		before := chunks()
		got, _, err := app.Append(context.Background(), planes[len(payloads):len(payloads)+k], nil)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, got...)
		if d := chunks() - before; d != int64(k) {
			t.Fatalf("append %d: encode.chunks advanced by %d, want %d", i, d, k)
		}
	}

	before := chunks()
	if _, err := app.Decode(context.Background(), 32, 16, payloads); err != nil {
		t.Fatal(err)
	}
	if d := chunks() - before; d != 0 {
		t.Fatalf("decoding advanced encode.chunks by %d", d)
	}
}

// TestAppenderRefusesRANS: a rANS tool set is refused by Append and by
// Decode, and Decode refuses geometry no container could carry: a plane edge
// outside (0, MaxFrameDim], no payloads, or more pixels than one decode may
// allocate.
func TestAppenderRefusesRANS(t *testing.T) {
	ctx := context.Background()
	planes := appendPlanes(17, 1)
	app := NewAppender(24, HEVC, ransTools(), 1, nil)
	if _, _, err := app.Append(ctx, planes, nil); err == nil {
		t.Fatal("Append accepted a rANS tool set")
	}
	cabac := NewAppender(24, HEVC, AllTools, 1, nil)
	payloads := appendSchedule(t, cabac, planes, []int{1})
	if _, err := app.Decode(ctx, 32, 16, payloads); !errors.Is(err, errAppendRANS) {
		t.Fatalf("Decode of a rANS tool set: %v, want the CABAC-only refusal", err)
	}
	for _, d := range [][2]int{{0, 16}, {32, -1}, {HEVC.MaxFrameDim() + 1, 16}} {
		if _, err := cabac.Decode(ctx, d[0], d[1], payloads); err == nil {
			t.Fatalf("Decode accepted %dx%d planes", d[0], d[1])
		}
	}
	if _, err := cabac.Decode(ctx, 32, 16, nil); err == nil {
		t.Fatal("Decode accepted no payloads")
	}
	side := HEVC.MaxFrameDim()
	if _, err := cabac.Decode(ctx, side, side, make([][]byte, maxDecodePixels/(side*side)+1)); err == nil {
		t.Fatalf("Decode accepted more than %d pixels", maxDecodePixels)
	}
}

// TestAppenderDecodeIsORegion: decoding two chunks out of a ten-chunk
// session touches exactly two chunks — the decode.chunks bound the GET
// ?range= path inherits — and counts one call, two planes and no container
// parse. A canceled read returns exactly ctx.Err() and counts as canceled.
func TestAppenderDecodeIsORegion(t *testing.T) {
	planes := appendPlanes(41, 10)
	payloads := appendSchedule(t, NewAppender(24, HEVC, AllTools, 1, nil), planes, []int{10})
	reg := obs.NewRegistry()
	app := NewAppender(24, HEVC, AllTools, 2, reg)
	if _, err := app.Decode(context.Background(), 32, 16, payloads[4:6]); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{"codec.decode.chunks": 2, "codec.decode.calls": 1, "codec.decode.planes": 2} {
		if n := snap.Counters[name]; n != want {
			t.Errorf("%s = %d after a two-chunk Decode, want %d", name, n, want)
		}
	}
	if n := snap.Histograms["codec.decode.stage.parse_ns"].Count; n != 0 {
		t.Errorf("Decode observed %d container parses, want none", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := app.Decode(ctx, 32, 16, payloads); err != context.Canceled {
		t.Fatalf("canceled Decode: %v, want exactly context.Canceled", err)
	}
	if n := reg.Snapshot().Counters["codec.decode.errors.canceled"]; n != 1 {
		t.Fatalf("codec.decode.errors.canceled = %d after a canceled Decode, want 1", n)
	}
}
