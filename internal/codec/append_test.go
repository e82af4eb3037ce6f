package codec

import (
	"bytes"
	"context"
	"math/rand"
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

// TestAppenderSnapshotMatchesOneShot: at several worker counts, a full-range
// snapshot of an incrementally grown container decodes
// to exactly the planes a one-shot encode of the same stack reconstructs —
// and every partial snapshot equals the matching crop.
func TestAppenderSnapshotMatchesOneShot(t *testing.T) {
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
		appendSchedule(t, app, planes, []int{1, 3, 2, 1, 1})
		snap, err := app.Snapshot(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeAll(snap, workers)
		if err != nil {
			t.Fatalf("workers %d: decoding snapshot: %v", workers, err)
		}
		requirePlanesEqual(t, "snapshot vs one-shot", got, want)

		// The snapshot is a plain v3 container: one chunk a plane, no trailer.
		lay, err := Layout(snap)
		if err != nil || lay.Version != 3 || len(lay.Entries) != 8 || lay.TrailerLen != 0 {
			t.Fatalf("snapshot layout: %+v, %v", lay, err)
		}

		// Partial snapshots: every window equals the full decode's crop.
		for _, win := range [][2]int{{0, 1}, {3, 2}, {7, 1}, {2, 6}} {
			snap, err := app.Snapshot(win[0], win[1])
			if err != nil {
				t.Fatalf("Snapshot[%d,+%d): %v", win[0], win[1], err)
			}
			got, err := decodeAll(snap, workers)
			if err != nil {
				t.Fatalf("decoding Snapshot[%d,+%d): %v", win[0], win[1], err)
			}
			requirePlanesEqual(t, "partial snapshot", got, want[win[0]:win[0]+win[1]])
		}
	}
}

// TestAppenderScheduleIndependentBytes: the payload bytes (and so the full
// snapshot) of an appended container depend only on the plane sequence,
// never on how the appends were batched — the content-addressing contract
// the kv tier's prefix aliasing is built on.
func TestAppenderScheduleIndependentBytes(t *testing.T) {
	planes := appendPlanes(23, 7)
	schedules := [][]int{{7}, {1, 1, 1, 1, 1, 1, 1}, {2, 3, 2}, {1, 6}}
	var refPayloads [][]byte
	var refSnap []byte
	for si, sizes := range schedules {
		app := NewAppender(24, HEVC, AllTools, 2, nil)
		payloads := appendSchedule(t, app, planes, sizes)
		snap, err := app.Snapshot(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if si == 0 {
			refPayloads, refSnap = payloads, snap
			continue
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], refPayloads[i]) {
				t.Fatalf("schedule %v: chunk %d payload differs", sizes, i)
			}
		}
		if !bytes.Equal(snap, refSnap) {
			t.Fatalf("schedule %v: snapshot bytes differ", sizes)
		}
	}
}

// TestAppenderNeverReencodes is the acceptance-criteria counter proof: each
// Append advances codec.encode.chunks by exactly the planes it carried, and
// the aliased AppendEncoded path advances it by zero.
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

	// Aliasing the same six chunks into a twin appender encodes nothing.
	before := chunks()
	twin := NewAppender(24, HEVC, AllTools, 1, reg)
	for _, p := range payloads {
		if err := twin.AppendEncoded(p, 32, 16); err != nil {
			t.Fatal(err)
		}
	}
	if d := chunks() - before; d != 0 {
		t.Fatalf("aliased appends advanced encode.chunks by %d", d)
	}
	a, err := app.Snapshot(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Snapshot(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("aliased twin snapshot differs from the donor's")
	}
}

// TestAppenderRefusesRANS: a rANS tool set is refused by Append and by
// AppendEncoded, and nothing is committed.
func TestAppenderRefusesRANS(t *testing.T) {
	planes := appendPlanes(17, 1)
	app := NewAppender(24, HEVC, ransTools(), 1, nil)
	if _, _, err := app.Append(context.Background(), planes, nil); err == nil {
		t.Fatal("Append accepted a rANS tool set")
	}
	payloads := appendSchedule(t, NewAppender(24, HEVC, AllTools, 1, nil), planes, []int{1})
	if err := app.AppendEncoded(payloads[0], 32, 16); err == nil {
		t.Fatal("AppendEncoded accepted a chunk into a rANS appender")
	}
	if app.Planes() != 0 {
		t.Fatalf("refused appends committed %d planes", app.Planes())
	}
}

// TestAppenderDropPlanes: dropping the prefix frees its bytes, later
// snapshots of the live suffix still decode, and snapshots reaching into the
// dropped prefix are refused.
func TestAppenderDropPlanes(t *testing.T) {
	planes := appendPlanes(29, 6)
	app := NewAppender(24, HEVC, AllTools, 2, nil)
	appendSchedule(t, app, planes, []int{6})
	oneShot, _ := app.Snapshot(0, 6)
	want, err := decodeAll(oneShot, 2)
	if err != nil {
		t.Fatal(err)
	}

	total := app.PayloadBytes()
	freed := app.DropPlanes(3)
	if freed <= 0 || app.PayloadBytes() != total-freed {
		t.Fatalf("DropPlanes freed %d, resident %d of %d", freed, app.PayloadBytes(), total)
	}
	if app.DroppedPlanes() != 3 {
		t.Fatalf("DroppedPlanes = %d, want 3", app.DroppedPlanes())
	}
	// Dropping again (or a smaller prefix) is idempotent.
	if again := app.DropPlanes(2); again != 0 {
		t.Fatalf("re-drop freed %d bytes", again)
	}

	snap, err := app.Snapshot(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	requirePlanesEqual(t, "post-drop suffix", got, want[3:])

	for _, win := range [][2]int{{0, 6}, {2, 2}, {0, 1}} {
		if _, err := app.Snapshot(win[0], win[1]); err == nil {
			t.Fatalf("Snapshot[%d,+%d) reached into the dropped prefix", win[0], win[1])
		}
	}

	// Appending continues after a drop.
	if _, _, err := app.Append(context.Background(), appendPlanes(31, 1), nil); err != nil {
		t.Fatal(err)
	}
	if app.Planes() != 7 {
		t.Fatalf("Planes = %d, want 7", app.Planes())
	}
	if _, err := app.Snapshot(6, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAppenderSnapshotDecodeIsORegion: decoding a two-plane snapshot out of
// a ten-plane session touches exactly two chunks — the decode.chunks bound
// the GET ?range= path inherits.
func TestAppenderSnapshotDecodeIsORegion(t *testing.T) {
	planes := appendPlanes(41, 10)
	app := NewAppender(24, HEVC, AllTools, 1, nil)
	appendSchedule(t, app, planes, []int{10})
	snap, err := app.Snapshot(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Decode(context.Background(), snap, DecodeConfig{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["codec.decode.chunks"]; n != 2 {
		t.Fatalf("two-plane snapshot decode touched %d chunks", n)
	}
}
