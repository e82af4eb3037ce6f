package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

// ransTools is AllTools with the interleaved-rANS entropy backend selected.
func ransTools() Tools {
	t := AllTools
	t.Backend = BackendRANS
	return t
}

// TestRANSRoundTrip: every encode entry point routes rANS streams into the
// v3 container, they decode back, and — because the recorder adapts the
// CABAC contexts identically — the reconstructions are bit-identical to the
// CABAC backend's at the same settings.
func TestRANSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	corpora := map[string][]*frame.Plane{
		"single small": {gradientPlane(rng, 48, 40)},
		"single tiny":  {gradientPlane(rng, 16, 16)},
		"multi chunk": {
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64),
		},
		"flat": {frame.NewPlane(64, 64)}, // all-zero source: many empty slots
	}
	for name, planes := range corpora {
		for _, prof := range []Profile{H264, HEVC} {
			data, st, err := encodeAs(ContainerV3, planes, 30, prof, ransTools(), 2)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", name, prof.Name, err)
			}
			if data[4] != versionChecksummed {
				t.Fatalf("%s/%s: rans stream has version %d, want %d", name, prof.Name, data[4], versionChecksummed)
			}
			if data[6]&toolsBackendExt == 0 {
				t.Fatalf("%s/%s: tools byte missing backend-extension bit", name, prof.Name)
			}
			got, err := decodeAll(data, 2)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, prof.Name, err)
			}
			cab, err := decodeAll(mustEncode(t, planes, 30, prof, AllTools), 2)
			if err != nil {
				t.Fatalf("%s/%s: cabac decode: %v", name, prof.Name, err)
			}
			for i := range got {
				if !got[i].Equal(cab[i]) {
					t.Fatalf("%s/%s: plane %d differs between rans and cabac reconstructions", name, prof.Name, i)
				}
			}
			if st.Pixels == 0 || st.Bits != len(data)*8 {
				t.Fatalf("%s/%s: stats %+v inconsistent with %d-byte stream", name, prof.Name, st, len(data))
			}
		}
	}

	// ContainerLegacy must also emit v3 under rANS (the table needs the
	// header extension) and agree byte-for-byte with ContainerV3.
	planes := corpora["multi chunk"]
	want, _, err := encodeAs(ContainerV3, planes, 30, HEVC, ransTools(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		legacy, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, ransTools(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy, want) {
			t.Fatalf("ContainerLegacy rans stream (workers=%d) differs from ContainerV3", workers)
		}
	}
}

func mustEncode(t *testing.T, planes []*frame.Plane, qp int, prof Profile, tools Tools) []byte {
	t.Helper()
	data, _, err := encodeAs(ContainerV3, planes, qp, prof, tools, 2)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ransHeaderLen computes the byte length of a v3 rANS container's header up
// to (not including) the header CRC, from its parsed geometry.
func ransHeaderLen(t *testing.T, data []byte) int {
	t.Helper()
	pc, err := parseContainer(data, false)
	if err != nil {
		t.Fatal(err)
	}
	return 8 + 2 + nCtxSlots + 4 + 8*len(pc.dims) + 4 + 12*len(pc.chunks)
}

// TestBackendByteTable sweeps all 256 values of the header's backend-id byte
// (offset 8, right after qp), recomputing the header CRC so the CRC check
// cannot mask the field validation: only BackendRANS's id decodes; every
// reserved value — including 0, since CABAC streams never carry the
// extension — is ErrCorrupt, never a panic and never misparsed as CABAC.
func TestBackendByteTable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := encodeAs(ContainerV3, planes, 30, HEVC, ransTools(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := ransHeaderLen(t, data)
	for id := 0; id < 256; id++ {
		bad := append([]byte(nil), data...)
		bad[8] = byte(id)
		binary.BigEndian.PutUint32(bad[hdrLen:], crc32.Checksum(bad[:hdrLen], crcTable))
		got, err := decodeAll(bad, 1)
		if id == int(BackendRANS) {
			if err != nil {
				t.Fatalf("backend id %d (rans): %v", id, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("backend id %d accepted (%d planes)", id, len(got))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("backend id %d: got %v, want ErrCorrupt", id, err)
		}
	}
}

// TestParseProfile pins the spellings the CLI flag and the HTTP query share.
func TestParseProfile(t *testing.T) {
	for s, want := range map[string]Profile{
		"": HEVC, "h265": HEVC, "hevc": HEVC, "h264": H264, "avc": H264, "av1": AV1,
	} {
		if got, err := ParseProfile(s); err != nil || got.Name != want.Name {
			t.Errorf("ParseProfile(%q) = %s, %v; want %s", s, got.Name, err, want.Name)
		}
	}
	if _, err := ParseProfile("vp9"); err == nil {
		t.Error("ParseProfile(vp9) accepted a profile the codec does not have")
	}
}

// TestBackendExtensionRequiresV3: hand-built v1 and v2 containers carrying
// the backend extension are structurally invalid — the encoder only ever
// emits rANS streams in the hardened container — and must be rejected as
// corrupt, not parsed as some hybrid framing.
func TestBackendExtensionRequiresV3(t *testing.T) {
	build := func(version byte) []byte {
		var b bytes.Buffer
		b.Write(magic[:])
		b.WriteByte(version)
		b.WriteByte(HEVC.id())
		b.WriteByte(ransTools().bits())
		b.WriteByte(30)
		b.WriteByte(byte(BackendRANS))
		b.WriteByte(nCtxSlots)
		for i := 0; i < nCtxSlots; i++ {
			b.WriteByte(128)
		}
		b.Write([]byte{0, 0, 0, 1})               // one frame
		b.Write([]byte{0, 0, 0, 16, 0, 0, 0, 16}) // 16×16
		if version == 1 {
			b.Write([]byte{0, 0, 0, 0}) // empty payload
		} else {
			b.Write([]byte{0, 0, 0, 1})             // one chunk
			b.Write([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // 1 plane, 0 bytes
		}
		return b.Bytes()
	}
	for _, version := range []byte{1, 2} {
		_, err := decodeAll(build(version), 1)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v%d with backend extension: got %v, want ErrCorrupt", version, err)
		}
	}
}

// TestRANSFaultSweeps runs the repo's standard corruption sweeps over a
// valid rANS container: every truncation and every single-bit flip is
// rejected (the v3 integrity framing covers the extension and the payloads
// alike), every zeroed window is detected, and nothing panics.
func TestRANSFaultSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := encodeAs(ContainerV3, planes, 30, HEVC, ransTools(), 1)
	if err != nil {
		t.Fatal(err)
	}

	res := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "rans truncation", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d truncations accepted, first %v", len(res.Silent), res.Silent[0])
	}

	res = faultinject.BitFlipSweep(data, 1, strictDecoder)
	requirePanicFree(t, "rans bitflip", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d bit flips undetected, first %v", len(res.Silent), res.Silent[0])
	}

	res = faultinject.ZeroRunSweep(data, 16, strictDecoder)
	requirePanicFree(t, "rans zerorun", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d zeroed windows undetected, first %v", len(res.Silent), res.Silent[0])
	}
}

// TestRANSPayloadStrictness bypasses the container CRC to hit the payload
// parser's own validation: with the chunk CRC recomputed over the damaged
// payload, the rANS layer itself must reject bin-count inflation and
// trailing bytes (the strict drain-everything rule).
func TestRANSPayloadStrictness(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := encodeAs(ContainerV3, planes, 30, HEVC, ransTools(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(data, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := pc.chunks[0].payload
	payStart := ransHeaderLen(t, data) + 4

	// Rebuild the container around a modified payload of the same length,
	// fixing the chunk CRC and header CRC so only the rANS parser stands.
	reseal := func(mut func(p []byte)) []byte {
		bad := append([]byte(nil), data...)
		mut(bad[payStart : payStart+len(payload)])
		hdrLen := payStart - 4
		// chunk table entry: planeCount|payloadLen|payloadCRC, one chunk.
		crcOff := 8 + 2 + nCtxSlots + 4 + 8*len(pc.dims) + 4 + 8
		binary.BigEndian.PutUint32(bad[crcOff:], crc32.Checksum(bad[payStart:payStart+len(payload)], crcTable))
		binary.BigEndian.PutUint32(bad[hdrLen:], crc32.Checksum(bad[:hdrLen], crcTable))
		return bad
	}

	// Damaging the final state segment's last byte must be caught by the
	// strict rANS Close (state must return to its initial value).
	bad := reseal(func(p []byte) { p[len(p)-1] ^= 0xFF })
	if _, err := decodeAll(bad, 1); err == nil {
		t.Fatal("damaged final rans segment byte accepted")
	} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("damaged segment: untyped error %v", err)
	}

	// Flipping a bit in the bypass window changes signs/suffixes but not the
	// segment framing; the decode must either reject it or at minimum not
	// panic — under the recomputed CRCs we only demand typed behavior.
	bad = reseal(func(p []byte) { p[1] ^= 0x01 })
	if _, err := decodeAll(bad, 1); err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bypass flip: untyped error %v", err)
		}
	}
}

// TestRANSBitrateNearCABAC caps the compression price of the rANS backend's
// parallel-decodable payloads (a static shared table vs per-bin adaptation):
// on a dense operating point (qp 16, where payload bits dominate the fixed
// table/framing overhead) the rANS container may cost at most 2% more than
// the CABAC container.
func TestRANSBitrateNearCABAC(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	planes := make([]*frame.Plane, 4)
	for i := range planes {
		planes[i] = gradientPlane(rng, 128, 128)
	}
	cab, _, err := encodeAs(ContainerV3, planes, 16, HEVC, AllTools, 2)
	if err != nil {
		t.Fatal(err)
	}
	rns, _, err := encodeAs(ContainerV3, planes, 16, HEVC, ransTools(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(rns)) / float64(len(cab))
	if ratio > 1.02 {
		t.Fatalf("rans container is %.1f%% of cabac (%d vs %d bytes), want ≤ 102%%",
			ratio*100, len(rns), len(cab))
	}
	t.Logf("rans/cabac container ratio at qp16: %.4f (%d vs %d bytes)", ratio, len(rns), len(cab))
}

// TestRANSRequiresEntropyStage: selecting the rANS backend with the entropy
// stage ablated away is a caller error, rejected up front.
func TestRANSRequiresEntropyStage(t *testing.T) {
	tools := ransTools()
	tools.CABAC = false
	planes := []*frame.Plane{frame.NewPlane(16, 16)}
	if _, _, err := encodeAs(ContainerV3, planes, 30, HEVC, tools, 1); err == nil {
		t.Fatal("rans without entropy stage accepted")
	}
	if _, _, err := encodeAs(ContainerLegacy, planes, 30, HEVC, tools, 1); err == nil {
		t.Fatal("rans without entropy stage accepted by ContainerLegacy")
	}
}

// TestLiteralPayloadBound holds the raw ablation's payload to the bound a
// rANS payload of the same geometry obeys: maxRansBins context bins, twice as
// many bypass bits and a byte's padding, over the area the chunk codes. A
// valid raw 8×8 stream padded past the bound is ErrCorrupt, refused before
// its bits are unpacked a byte each (padded by 1 MiB, the decode allocates
// less than the payload). The worst cases an encoder makes sit under the bound on both
// coders that use it, and decode: TestLevelCap's extreme blocks tiled into
// planes, and 1×1 and 17×13 planes at either end of the pixel range, at QP 0
// with every tool off and with the transform alone.
func TestLiteralPayloadBound(t *testing.T) {
	ctx := context.Background()
	var planes []*frame.Plane
	for _, size := range []int{4, 8, 16, 32} {
		extremeBlocks(size, func(orig, _ []int32) {
			p := frame.NewPlane(32, 32)
			for i := range p.Pix {
				p.Pix[i] = uint8(orig[i/32%size*size+i%32%size])
			}
			planes = append(planes, p)
		})
	}
	for _, dims := range [][2]int{{1, 1}, {17, 13}} {
		for _, v := range []uint8{0, 255} {
			p := frame.NewPlane(dims[0], dims[1])
			for i := range p.Pix {
				p.Pix[i] = v
			}
			planes = append(planes, p)
		}
	}
	worst := 0.0
	for _, tools := range []Tools{{}, {Transform: true}, {CABAC: true, Backend: BackendRANS}, {CABAC: true, Transform: true, Backend: BackendRANS}} {
		for _, p := range planes {
			data, _, _, err := Encode(ctx, []*frame.Plane{p}, EncodeConfig{QP: 0, Profile: HEVC, Tools: tools, Workers: 1, Container: ContainerV3})
			if err != nil {
				t.Fatal(err)
			}
			pc, err := parseContainer(data, false)
			if err != nil {
				t.Fatal(err)
			}
			c := &pc.chunks[0]
			bound := 3*maxRansBins(codedPixels(c.dims, HEVC.CTUSize)) + 7
			worst = max(worst, float64(8*len(c.payload))/float64(bound))
			if 8*int64(len(c.payload)) > bound {
				t.Errorf("%+v %dx%d: %d payload bits, bound %d", tools, p.W, p.H, 8*len(c.payload), bound)
			}
			if _, err := Decode(ctx, data, DecodeConfig{Workers: 1}); err != nil {
				t.Errorf("%+v %dx%d: %v", tools, p.W, p.H, err)
			}
		}
	}
	t.Logf("largest payload: %.3f of the bound", worst)

	data, _, _, err := Encode(ctx, []*frame.Plane{frame.NewPlane(8, 8)}, EncodeConfig{QP: 30, Profile: HEVC, Tools: Tools{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(data, false)
	if err != nil {
		t.Fatal(err)
	}
	bound := 3*maxRansBins(codedPixels(pc.dims, HEVC.CTUSize)) + 7
	payload := append(append([]byte(nil), pc.chunks[0].payload...), make([]byte, 1<<20)...)
	for _, n := range []int{int(bound/8) + 1, len(payload)} {
		stream, _ := writeContainer(1, pc.dims, pc.qp, HEVC, Tools{}, nil, []chunkRec{{payload: payload[:n], planes: 1}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(ctx, stream, DecodeConfig{Workers: 1})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-byte raw payload for an 8×8 plane (bound %d bits): Decode error %v, want ErrCorrupt", n, bound, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; n == len(payload) && grew >= uint64(n) {
			t.Fatalf("%d-byte raw payload: the refused decode allocated %d bytes", n, grew)
		}
	}
}

// predecodeBoth pre-decodes a framed chunk twice — the production loop on one
// copy, predecodeDef on another — and fails unless both end in the same error
// (its class, its state and its detail) or, without one, in the same bins. It
// returns the production copy's bins and error.
func predecodeBoth(t *testing.T, label string, c *ransChunk, segs *[ransLanes][]byte, tab *[nCtxSlots]uint8) ([]uint8, error) {
	t.Helper()
	got, want := *c, *c
	got.bins, want.bins = slices.Clone(c.bins), slices.Clone(c.bins)
	gotErr, wantErr := got.predecode(segs, tab), predecodeDef(&want, segs, tab)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: pre-decode ends %v, definition %v", label, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got.bins, want.bins) {
		t.Fatalf("%s: pre-decoded bins differ from the definition's", label)
	}
	return got.bins, gotErr
}

// TestPredecodeEquivalence holds the chunk pre-decode — the four rANS states
// in one loop — to its definition, each state alone: the same bins, or the
// same error with the same state index. On every chunk of the golden rANS
// vectors, and on forged chunks: records of drawn slots (totals of 1–7 bins,
// so that some states code none, and runs of up to 300, so that runs start at
// every residue mod 4) assembled as the encoder assembles them, clean and
// then with each failure kind — a segment under 3 bytes, an initial state
// below 2¹⁶, a segment cut short, a flipped byte (a final state other than
// 2¹⁶), a trailing byte — in each state, alone or beside a second damaged
// state, where the lower one must be reported.
func TestPredecodeEquivalence(t *testing.T) {
	golden := 0
	goldenChunks(t, func(name string, pc *parsedContainer, c *chunkMeta) {
		if pc.tools.Backend != BackendRANS {
			return
		}
		var rc ransChunk
		segs, err := rc.readFraming(c.payload, codedPixels(c.dims, pc.prof.CTUSize))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := predecodeBoth(t, name, &rc, &segs, pc.ransTab); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden++
	})
	if golden == 0 {
		t.Fatal("no golden rANS chunk")
	}

	rng := rand.New(rand.NewSource(65))
	kinds := []string{"-byte segment", "initial state", "mid-renormalization", "final state", "unconsumed"}
	var seen [5][ransLanes]int
	var residues [ransLanes]int
	damage := func(seg []byte, kind int) []byte {
		switch kind {
		case 0:
			return seg[:rng.Intn(min(3, len(seg)))]
		case 1:
			seg = slices.Clone(seg)
			seg[0] = 0
		case 2:
			return seg[:3+rng.Intn(len(seg)-2)/2]
		case 3:
			seg = slices.Clone(seg)
			seg[min(3+rng.Intn(len(seg)), len(seg)-1)] ^= uint8(1 + rng.Intn(255))
		default:
			seg = append(slices.Clone(seg), uint8(rng.Intn(256)))
		}
		return seg
	}
	for trial := 0; trial < 3000; trial++ {
		var tab [nCtxSlots]uint8
		for s := range tab {
			tab[s] = uint8(1 + rng.Intn(255))
		}
		rec := newRansRecord()
		var want []uint8
		budget := []int{1 + rng.Intn(7), 1 << 20}[trial%2]
		for s := range rec.slotBins {
			if rng.Intn(3) != 0 || budget == 0 {
				continue
			}
			n := min(1+rng.Intn(300), budget)
			budget -= n
			residues[len(want)%ransLanes]++
			for range n {
				b := uint8(0)
				if rng.Intn(256) >= int(tab[s]) {
					b = 1
				}
				rec.slotBins[s] = append(rec.slotBins[s], b)
			}
			want = append(want, rec.slotBins[s]...)
		}
		for range rng.Intn(20) {
			rec.bypass.WriteBit(rng.Intn(2))
		}
		var rc ransChunk
		clean, err := rc.readFraming(rec.assemble(&tab), 1<<20)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d (%d bins)", trial, len(want))
		bins, err := predecodeBoth(t, label, &rc, &clean, &tab)
		if err != nil || !bytes.Equal(bins[rc.prefix[1]:], want) {
			t.Fatalf("%s: clean chunk pre-decodes to other bins (%v)", label, err)
		}
		if len(want) == 0 {
			continue
		}
		for kind := range kinds {
			j := rng.Intn(ransLanes)
			segs := clean
			segs[j] = damage(segs[j], kind)
			if trial%3 == 0 {
				k := (j + 1 + rng.Intn(ransLanes-1)) % ransLanes
				segs[k] = damage(segs[k], rng.Intn(len(kinds)))
			}
			_, err := predecodeBoth(t, fmt.Sprintf("%s, %s in state %d", label, kinds[kind], j), &rc, &segs, &tab)
			if err == nil {
				continue
			}
			var state int
			if _, serr := fmt.Sscanf(err.Error(), "codec: rans state %d:", &state); serr != nil {
				t.Fatalf("%s: error %q names no state", label, err)
			}
			for k, msg := range kinds {
				if strings.Contains(err.Error(), msg) {
					seen[k][state]++
				}
			}
		}
	}
	for k, msg := range kinds {
		for j, n := range seen[k] {
			if n == 0 {
				t.Errorf("no forged chunk failed with %q in state %d", msg, j)
			}
		}
	}
	for r, n := range residues {
		if n == 0 {
			t.Errorf("no forged run started at residue %d", r)
		}
	}
}

// BenchmarkPredecodeRANS times the chunk pre-decode production runs — the
// four rANS states in one loop — beside its definition (each state alone, one
// bin a call), on one 256×256 layer of the weights_fetch stack at QP 12, in
// ns a bin.
func BenchmarkPredecodeRANS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pix, _, _ := quant.ToUint8(tensorgen.WeightStack(rng, 1, 256, 256, 0.3)[0])
	data, _, _, err := Encode(context.Background(), []*frame.Plane{{W: 256, H: 256, Pix: pix}},
		EncodeConfig{QP: 12, Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerV3})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := parseContainer(data, false)
	if err != nil {
		b.Fatal(err)
	}
	c := &pc.chunks[0]
	var rc ransChunk
	segs, err := rc.readFraming(c.payload, codedPixels(c.dims, pc.prof.CTUSize))
	if err != nil {
		b.Fatal(err)
	}
	bins := rc.prefix[nQueues] - rc.prefix[1]
	for _, v := range []struct {
		name string
		f    func(*ransChunk, *[ransLanes][]byte, *[nCtxSlots]uint8) error
	}{{"loop", (*ransChunk).predecode}, {"def", predecodeDef}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.f(&rc, &segs, pc.ransTab); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bins), "ns/bin")
		})
	}
}
