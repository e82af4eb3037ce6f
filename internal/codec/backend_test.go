package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/quant"
	"repro/internal/rans"
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
				t.Fatalf("%s/%s: encode: %v", name, prof, err)
			}
			if data[4] != versionChecksummed {
				t.Fatalf("%s/%s: rans stream has version %d, want %d", name, prof, data[4], versionChecksummed)
			}
			if data[6]&toolsBackendExt == 0 {
				t.Fatalf("%s/%s: tools byte missing backend-extension bit", name, prof)
			}
			got, err := decodeAll(data, 2)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, prof, err)
			}
			cab, err := decodeAll(mustEncode(t, planes, 30, prof, AllTools), 2)
			if err != nil {
				t.Fatalf("%s/%s: cabac decode: %v", name, prof, err)
			}
			for i := range got {
				if !got[i].Equal(cab[i]) {
					t.Fatalf("%s/%s: plane %d differs between rans and cabac reconstructions", name, prof, i)
				}
			}
			if st.Pixels == 0 || st.Bits != len(data)*8 {
				t.Fatalf("%s/%s: stats %+v inconsistent with %d-byte stream", name, prof, st, len(data))
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
	pc, err := parseContainer(data, false, true)
	if err != nil {
		t.Fatal(err)
	}
	return pc.payloadBase - 4
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
		if got, err := ParseProfile(s); err != nil || got != want {
			t.Errorf("ParseProfile(%q) = %s, %v; want %s", s, got, err, want)
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
		b.WriteByte(HEVC.params().wire)
		b.WriteByte(ransTools().bits())
		b.WriteByte(30)
		b.WriteByte(byte(BackendRANS))
		b.Write(appendRansExt(nil, new(ransTables)))
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
	pc, err := parseContainer(data, false, true)
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
		// chunk table entry: planeCount|payloadLen|payloadCRC, one chunk,
		// right before the header CRC.
		crcOff := hdrLen - 4
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

// TestRANSBitrateNearCABAC bands the compression price of the rANS
// backend's parallel-decodable payloads — static per-class tables against
// CABAC's per-bin adaptation — as the ratio of the rANS container's size to
// the CABAC container's, one row per benchmark workload's tensor shape and
// coding point plus a dense 128×128 stack at QP 16. Each band is the ratio
// measured when the symbol coder replaced the binary one, plus 0.5 %; every
// row measured below the binary coder's ratio. The rows above CABAC are
// where a static table loses most to adaptation: the gradient row's levels
// are few and sparse, and the KV row's 4 KB container pays for its tables'
// bytes and for a model with few symbols to learn from.
func TestRANSBitrateNearCABAC(t *testing.T) {
	planes := func(seed int64, n int, f func(rng *rand.Rand) (int, int, []float32)) []*frame.Plane {
		rng := rand.New(rand.NewSource(seed))
		ps := make([]*frame.Plane, n)
		for i := range ps {
			w, h, vals := f(rng)
			pix, _, _ := quant.ToUint8(vals)
			ps[i] = &frame.Plane{W: w, H: h, Pix: pix}
		}
		return ps
	}
	stack := func(seed int64, depth int) []*frame.Plane {
		layers := tensorgen.WeightStack(rand.New(rand.NewSource(seed)), depth, 256, 256, 0.3)
		return planes(seed, depth, func(*rand.Rand) (int, int, []float32) {
			l := layers[0]
			layers = layers[1:]
			return 256, 256, l
		})
	}
	gradient := rand.New(rand.NewSource(26))
	for _, c := range []struct {
		name   string
		planes []*frame.Plane
		qp     int
		band   float64
	}{
		{"weights_encode", stack(265, 2), 12, 0.984},
		{"weights_fetch", stack(265, 4), 12, 1.037},
		{"serve_codec", planes(41, 4, func(rng *rand.Rand) (int, int, []float32) { return 256, 128, tensorgen.Weights(rng, 128, 256) }), 4, 1.034},
		{"kv_stream", planes(42, 8, func(rng *rand.Rand) (int, int, []float32) { return 128, 32, tensorgen.Activations(rng, 32, 128) }), 24, 1.171},
		{"grad_ring", planes(43, 4, func(rng *rand.Rand) (int, int, []float32) { return 256, 256, tensorgen.Gradients(rng, 256*256, 2) }), 12, 1.089},
		{"dense-qp16", []*frame.Plane{gradientPlane(gradient, 128, 128), gradientPlane(gradient, 128, 128), gradientPlane(gradient, 128, 128), gradientPlane(gradient, 128, 128)}, 16, 0.990},
	} {
		t.Run(c.name, func(t *testing.T) {
			cab, _, err := encodeAs(ContainerV3, c.planes, c.qp, HEVC, AllTools, 2)
			if err != nil {
				t.Fatal(err)
			}
			rns, _, err := encodeAs(ContainerV3, c.planes, c.qp, HEVC, ransTools(), 2)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(len(rns)) / float64(len(cab))
			if ratio > c.band {
				t.Errorf("rans container is %.2f%% of cabac's (%d vs %d bytes), band %.2f%%",
					100*ratio, len(rns), len(cab), 100*c.band)
			}
			t.Logf("rans/cabac %.4f (%d vs %d bytes)", ratio, len(rns), len(cab))
		})
	}
}

// retiredFixture is a container the retired binary-rANS backend wrote (the
// v3-rans-hevc-noise-33x31-qp16 golden vector as it stood before the symbol
// coder replaced it): its backend extension is the 56-slot bin-probability
// table.
const retiredFixture = "testdata/retired-binary-rans-hevc-noise-33x31-qp16.l265"

// forgedRANSStreams returns a valid rANS container and variants of it that a
// conforming encoder cannot write, each rebuilt with valid CRCs so that only
// the backend's own checks stand: a level-class count out of range (K), a
// table longer than its class's alphabet, a table that does not sum to
// rans.Scale, a
// table giving a used symbol zero frequency (its share moved to another
// symbol, the sum kept), and class counts one above and one below what the
// chunk's symbols tile.
func forgedRANSStreams(t testing.TB) (clean []byte, forged map[string][]byte) {
	rng := rand.New(rand.NewSource(27))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40), gradientPlane(rng, 48, 40)}
	clean, _, err := encodeAs(ContainerV3, planes, 30, HEVC, ransTools(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(clean, false, true)
	if err != nil {
		t.Fatal(err)
	}
	// rebuild writes the container around an extension and chunk payloads.
	rebuild := func(ext []byte, payloads [][]byte) []byte {
		chunks := make([]chunkRec, len(pc.chunks))
		for i, c := range pc.chunks {
			chunks[i] = chunkRec{payload: c.payload, planes: len(c.dims)}
			if payloads != nil {
				chunks[i].payload = payloads[i]
			}
		}
		out, _ := writeContainer(versionChecksummed, pc.dims, pc.qp, pc.prof, pc.tools, ext, chunks)
		return out
	}
	ext := appendRansExt(nil, pc.ransTabs)
	if !bytes.Equal(rebuild(ext, nil), clean) {
		t.Fatal("rebuilding the clean container moved its bytes")
	}
	// tableExt serializes pc's tables with class c's frequencies edited.
	tableExt := func(c int, edit func(freq []uint32) []uint32) []byte {
		out := []byte{levelClasses}
		for cl, tab := range pc.ransTabs {
			if tab == nil {
				out = append(out, 0)
				continue
			}
			freq := make([]uint32, classAlphabet(cl))
			for s := range freq {
				freq[s] = tab.Freq(uint8(s))
			}
			if cl == c {
				freq = edit(freq)
			}
			out = append(out, byte(len(freq)))
			for _, f := range freq {
				out = binary.AppendUvarint(out, uint64(f))
			}
		}
		return out
	}
	forged = map[string][]byte{}
	for _, k := range []byte{0, 1, levelClasses - 1, levelClasses + 1, retiredSlots, 255} {
		bad := slices.Clone(ext)
		bad[0] = k
		forged[fmt.Sprintf("K=%d", k)] = rebuild(bad, nil)
	}
	lc := levelClass(3, levelBand) // the 32×32 blocks' second level class
	if pc.ransTabs[lc] == nil || pc.ransTabs[lc].Freq(1) == 0 {
		t.Fatalf("class %d codes no level 1", lc)
	}
	forged["table longer than its alphabet"] = rebuild(tableExt(lc, func(f []uint32) []uint32 { return append(f, 0) }), nil)
	forged["table sums past Scale"] = rebuild(tableExt(lc, func(f []uint32) []uint32 { f[0]++; return f }), nil)
	forged["table sums short of Scale"] = rebuild(tableExt(lc, func(f []uint32) []uint32 { f[0]--; return f }), nil)
	forged["used symbol at zero frequency"] = rebuild(tableExt(lc, func(f []uint32) []uint32 { f[0], f[1] = f[0]+f[1], 0; return f }), nil)
	// Class counts: the payload re-serialized around its own bypass window,
	// segment lengths and segments, one count moved by one.
	for _, d := range []int{1, -1} {
		payloads := make([][]byte, len(pc.chunks))
		for i, c := range pc.chunks {
			var rc ransChunk
			if _, err := rc.readFraming(c.payload, pc.ransTabs, codedPixels(c.dims, pc.prof.CTUSize())); err != nil {
				t.Fatal(err)
			}
			head := binary.AppendUvarint(nil, uint64(rc.n))
			head = append(head, rc.buf[:len(rc.buf)-1]...)
			counts := len(head)
			for cl, tab := range pc.ransTabs {
				if tab != nil {
					n := rc.start[cl+1] - rc.start[cl]
					if cl == lc {
						n += d
					}
					head = binary.AppendUvarint(head, uint64(n))
				}
			}
			rest := c.payload[counts:]
			for _, tab := range pc.ransTabs {
				if tab != nil {
					_, k := binary.Uvarint(rest)
					rest = rest[k:]
				}
			}
			payloads[i] = append(head, rest...)
		}
		forged[fmt.Sprintf("class %d count %+d", lc, d)] = rebuild(ext, payloads)
	}
	return clean, forged
}

// TestRANSHeaderRefusals: a container the retired binary-rANS backend wrote
// is ErrCorrupt with a message naming that layout, and so is every forged
// variant of a valid container (forgedRANSStreams) — never a panic, never a
// decode.
func TestRANSHeaderRefusals(t *testing.T) {
	old, err := os.ReadFile(retiredFixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(old, 1); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "retired binary-rANS layout") {
		t.Fatalf("retired binary-rANS container: %v, want ErrCorrupt naming the retired layout", err)
	}
	clean, forged := forgedRANSStreams(t)
	if _, err := decodeAll(clean, 1); err != nil {
		t.Fatalf("clean container: %v", err)
	}
	for name, data := range forged {
		for _, workers := range []int{1, stagedWorkers} {
			if _, err := decodeAll(data, workers); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s (workers %d): %v, want ErrCorrupt", name, workers, err)
			}
		}
		// Layout checks the extension without building decode tables: each
		// forged header is refused there too. (A zero-frequency symbol and
		// the class counts are payload defects, found by the decode alone.)
		if strings.HasPrefix(name, "K=") || strings.HasPrefix(name, "table ") {
			if _, err := Layout(data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Layout gives %v, want ErrCorrupt", name, err)
			}
		}
	}
}

// TestRANSExtensionSweep flips every bit of the backend extension with the
// header CRC recomputed, so that the extension's own validation stands: each
// flip is a typed error, or decodes to the clean planes; none panics.
func TestRANSExtensionSweep(t *testing.T) {
	clean, _ := forgedRANSStreams(t)
	want, err := decodeAll(clean, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(clean, false, true)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := pc.payloadBase - 4
	extLen := len(appendRansExt(nil, pc.ransTabs))
	refused := 0
	for i := 9; i < 9+extLen; i++ {
		for b := 0; b < 8; b++ {
			bad := slices.Clone(clean)
			bad[i] ^= 1 << b
			binary.BigEndian.PutUint32(bad[hdrLen:], crc32.Checksum(bad[:hdrLen], crcTable))
			got, err := decodeAll(bad, 1)
			switch {
			case err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated):
				t.Fatalf("byte %d bit %d: untyped error %v", i, b, err)
			case err == nil && !samePlanes(got, want):
				t.Fatalf("byte %d bit %d: decodes to other planes", i, b)
			case err != nil:
				refused++
			}
		}
	}
	t.Logf("%d of %d extension bit flips refused", refused, 8*extLen)
}

// predecodeBoth pre-decodes a framed chunk twice — the production loop on one
// copy, predecodeDef on another — and fails unless both end in the same error
// (its class, its state and its detail) or, without one, in the same symbols.
// It returns the production copy's symbols and error.
func predecodeBoth(t *testing.T, label string, c *ransChunk, segs *[rans.Interleave][]byte, tabs *ransTables) ([]uint8, error) {
	t.Helper()
	got, want := *c, *c
	got.syms, want.syms = slices.Clone(c.syms), slices.Clone(c.syms)
	gotErr, wantErr := got.predecode(segs, tabs), predecodeDef(&want, segs, tabs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: pre-decode ends %v, definition %v", label, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got.syms, want.syms) {
		t.Fatalf("%s: pre-decoded symbols differ from the definition's", label)
	}
	return got.syms, gotErr
}

// drawClassTable draws a table for class c: its alphabet's counts spread over
// six orders of magnitude, some of them 1 (a frequency-1 symbol renormalizes
// by two bytes), and a pool to draw symbols from that follows them.
func drawClassTable(t testing.TB, rng *rand.Rand, c int) (*rans.Freqs, []uint8) {
	var counts [256]int64
	var pool []uint8
	for s := 0; s < classAlphabet(c); s++ {
		counts[s] = int64(1) << rng.Intn(20)
		for range min(counts[s], 32) {
			pool = append(pool, uint8(s))
		}
	}
	tab, err := rans.NormalizeFreqs(&counts)
	if err != nil {
		t.Fatal(err)
	}
	return tab, pool
}

// TestPredecodeEquivalence holds the chunk pre-decode — the four rANS states
// in one loop — to its definition, each state alone: the same symbols, or the
// same error with the same state index. On every chunk of the golden rANS
// vectors, and on forged chunks: records of drawn classes and tables (totals
// of 1–7 symbols, so that some states code none, and runs of up to 300, so
// that runs start at every residue mod 4) assembled as the encoder assembles
// them, clean and then with each failure kind — a segment under 3 bytes, an
// initial state below 2¹⁶, a segment cut short, a flipped byte (a final
// state other than 2¹⁶), a trailing byte — in each state, alone or beside a
// second damaged state, where the lower one must be reported.
func TestPredecodeEquivalence(t *testing.T) {
	golden := 0
	goldenChunks(t, func(name string, pc *parsedContainer, c *chunkMeta) {
		if pc.tools.Backend != BackendRANS {
			return
		}
		var rc ransChunk
		segs, err := rc.readFraming(c.payload, pc.ransTabs, codedPixels(c.dims, pc.prof.CTUSize()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := predecodeBoth(t, name, &rc, &segs, pc.ransTabs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden++
	})
	if golden == 0 {
		t.Fatal("no golden rANS chunk")
	}

	rng := rand.New(rand.NewSource(65))
	kinds := []string{"-byte segment", "initial state", "mid-renormalization", "final state", "unconsumed"}
	var seen [5][rans.Interleave]int
	var residues [rans.Interleave]int
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
		tabs := new(ransTables)
		rec := newRansRecord()
		var want []uint8
		budget := []int{1 + rng.Intn(7), 1 << 20}[trial%2]
		for c := range tabs {
			if rng.Intn(3) == 0 || budget == 0 {
				continue
			}
			var pool []uint8
			tabs[c], pool = drawClassTable(t, rng, c)
			n := min(1+rng.Intn(300), budget)
			budget -= n
			residues[len(want)%rans.Interleave]++
			for range n {
				rec.syms[c] = append(rec.syms[c], pool[rng.Intn(len(pool))])
			}
			want = append(want, rec.syms[c]...)
		}
		for range rng.Intn(20) {
			rec.bypass.WriteBit(rng.Intn(2))
		}
		var rc ransChunk
		clean, err := rc.readFraming(rec.assemble(tabs), tabs, 1<<20)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d (%d symbols)", trial, len(want))
		syms, err := predecodeBoth(t, label, &rc, &clean, tabs)
		if err != nil || !bytes.Equal(syms, want) {
			t.Fatalf("%s: clean chunk pre-decodes to other symbols (%v)", label, err)
		}
		if len(want) == 0 {
			continue
		}
		for kind := range kinds {
			j := rng.Intn(rans.Interleave)
			segs := clean
			segs[j] = damage(segs[j], kind)
			if trial%3 == 0 {
				k := (j + 1 + rng.Intn(rans.Interleave-1)) % rans.Interleave
				segs[k] = damage(segs[k], rng.Intn(len(kinds)))
			}
			_, err := predecodeBoth(t, fmt.Sprintf("%s, %s in state %d", label, kinds[kind], j), &rc, &segs, tabs)
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
// symbol a call), on one 256×256 layer of the weights_fetch stack at QP 12,
// in ns a symbol.
func BenchmarkPredecodeRANS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pix, _, _ := quant.ToUint8(tensorgen.WeightStack(rng, 1, 256, 256, 0.3)[0])
	data, _, _, err := Encode(context.Background(), []*frame.Plane{{W: 256, H: 256, Pix: pix}},
		EncodeConfig{QP: 12, Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerV3})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := parseContainer(data, false, true)
	if err != nil {
		b.Fatal(err)
	}
	c := &pc.chunks[0]
	var rc ransChunk
	segs, err := rc.readFraming(c.payload, pc.ransTabs, codedPixels(c.dims, pc.prof.CTUSize()))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		f    func(*ransChunk, *[rans.Interleave][]byte, *ransTables) error
	}{{"loop", (*ransChunk).predecode}, {"def", predecodeDef}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.f(&rc, &segs, pc.ransTabs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rc.syms)), "ns/symbol")
		})
	}
}
