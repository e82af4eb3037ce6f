package codec

import (
	"bytes"
	"context"
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

// TestAppenderFrameMatchesOneShot: at several worker counts, a container
// framed over every appended payload decodes to exactly the planes a one-shot
// encode of the same stack reconstructs — and a frame over any window of the
// payloads equals the matching crop.
func TestAppenderFrameMatchesOneShot(t *testing.T) {
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
		framed, err := app.Frame(32, 16, payloads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeAll(framed, workers)
		if err != nil {
			t.Fatalf("workers %d: decoding the frame: %v", workers, err)
		}
		requirePlanesEqual(t, "frame vs one-shot", got, want)

		// The frame is a plain v3 container: one chunk a plane.
		lay, err := Layout(framed)
		if err != nil || framed[4] != versionChecksummed || len(lay.Entries) != 8 {
			t.Fatalf("frame layout: %+v, %v", lay, err)
		}

		// Windows: every window's frame equals the full decode's crop.
		for _, win := range [][2]int{{0, 1}, {3, 2}, {7, 1}, {2, 6}} {
			framed, err := app.Frame(32, 16, payloads[win[0]:win[0]+win[1]])
			if err != nil {
				t.Fatalf("Frame[%d,+%d): %v", win[0], win[1], err)
			}
			got, err := decodeAll(framed, workers)
			if err != nil {
				t.Fatalf("decoding Frame[%d,+%d): %v", win[0], win[1], err)
			}
			requirePlanesEqual(t, "window frame", got, want[win[0]:win[0]+win[1]])
		}
	}
}

// TestAppenderScheduleIndependentBytes: the payload bytes (and so the framed
// container) of appended planes depend only on the plane sequence, never on
// how the appends were batched — the contract that lets the kv tier key a
// chunk by the rows it encodes.
func TestAppenderScheduleIndependentBytes(t *testing.T) {
	planes := appendPlanes(23, 7)
	schedules := [][]int{{7}, {1, 1, 1, 1, 1, 1, 1}, {2, 3, 2}, {1, 6}}
	var refPayloads [][]byte
	var refFrame []byte
	for si, sizes := range schedules {
		app := NewAppender(24, HEVC, AllTools, 2, nil)
		payloads := appendSchedule(t, app, planes, sizes)
		framed, err := app.Frame(32, 16, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if si == 0 {
			refPayloads, refFrame = payloads, framed
			continue
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("schedule %v: chunk %d payload differs", sizes, i)
			}
		}
		if !bytes.Equal(framed, refFrame) {
			t.Fatalf("schedule %v: framed bytes differ", sizes)
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
// framing the payloads for a read advances it by zero.
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
	if _, err := app.Frame(32, 16, payloads); err != nil {
		t.Fatal(err)
	}
	if d := chunks() - before; d != 0 {
		t.Fatalf("framing advanced encode.chunks by %d", d)
	}
}

// TestAppenderRefusesRANS: a rANS tool set is refused by Append and by
// Frame, and Frame refuses geometry no container can carry.
func TestAppenderRefusesRANS(t *testing.T) {
	planes := appendPlanes(17, 1)
	app := NewAppender(24, HEVC, ransTools(), 1, nil)
	if _, _, err := app.Append(context.Background(), planes, nil); err == nil {
		t.Fatal("Append accepted a rANS tool set")
	}
	cabac := NewAppender(24, HEVC, AllTools, 1, nil)
	payloads := appendSchedule(t, cabac, planes, []int{1})
	if _, err := app.Frame(32, 16, payloads); err == nil {
		t.Fatal("Frame accepted a rANS tool set")
	}
	for _, d := range [][2]int{{0, 16}, {32, -1}, {HEVC.MaxFrameDim() + 1, 16}} {
		if _, err := cabac.Frame(d[0], d[1], payloads); err == nil {
			t.Fatalf("Frame accepted %dx%d planes", d[0], d[1])
		}
	}
	if _, err := cabac.Frame(32, 16, nil); err == nil {
		t.Fatal("Frame accepted no payloads")
	}
}

// TestAppenderFrameDecodeIsORegion: decoding a two-chunk frame out of a
// ten-chunk session touches exactly two chunks — the decode.chunks bound
// the GET ?range= path inherits.
func TestAppenderFrameDecodeIsORegion(t *testing.T) {
	planes := appendPlanes(41, 10)
	app := NewAppender(24, HEVC, AllTools, 1, nil)
	payloads := appendSchedule(t, app, planes, []int{10})
	framed, err := app.Frame(32, 16, payloads[4:6])
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Decode(context.Background(), framed, DecodeConfig{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["codec.decode.chunks"]; n != 2 {
		t.Fatalf("two-chunk frame decode touched %d chunks", n)
	}
}
