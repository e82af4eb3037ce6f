package codec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/cabac"
	"repro/internal/frame"
)

// trapDecodeError runs f and returns the stream error it raised, classified
// as decodeChunkPayload classifies it; any other panic is a defect and goes on.
func trapDecodeError(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(decodeError)
			if !ok {
				panic(r)
			}
			err = classifyStreamErr(de.err)
		}
	}()
	f()
	return nil
}

// lockstep reads one payload twice: through the reader the decoder would use
// (so that decoder.parseResidual takes its production spelling) and through a
// reference reader for parseResidualPerBin. state returns what each side has
// consumed and adapted — engine registers or queue cursors, and the contexts.
type lockstep struct {
	prod  binDecoder
	ref   perBinDecoder
	state func() (prod, ref any)
}

type cabacState struct {
	engine cabac.Decoder // code, rng, pos (and the input they index)
	ctx    contexts
}

// newCabacLockstep pairs the block form with the per-bin loop over a CABAC
// payload. setCtx, when non-nil, replaces the initial context states.
func newCabacLockstep(payload []byte, setCtx func(*contexts)) *lockstep {
	var ctxs [2]contexts
	var decs [2]*cabacBinDec
	for i := range decs {
		ctxs[i].init()
		if setCtx != nil {
			setCtx(&ctxs[i])
		}
		decs[i] = &cabacBinDec{d: cabac.NewDecoder(payload), ctx: &ctxs[i]}
	}
	return &lockstep{prod: decs[0], ref: cabacPerBin{decs[1]}, state: func() (any, any) {
		return cabacState{*decs[0].d, ctxs[0]}, cabacState{*decs[1].d, ctxs[1]}
	}}
}

// newChunkLockstep pairs the concrete-reader loop with the per-bin loop over
// two identical pre-decoded chunks (rANS), or over a literal chunk and the
// raw reader by definition. What each side has consumed is its queue cursors;
// the raw reader's one cursor is the literal chunk's queue 0.
func newChunkLockstep(prod *ransChunk, ref perBinDecoder) *lockstep {
	return &lockstep{prod: prod, ref: ref, state: func() (any, any) {
		switch r := ref.(type) {
		case *ransChunk:
			return prod.next, r.next
		case rawBinDec:
			return prod.next, [nQueues]int{bypassQueue: *r.pos}
		}
		panic("unknown reference reader")
	}}
}

// block parses the next size×size block both ways. The two must end in the
// same error class; when that is "ok" they must also agree on every level and
// on the state afterwards. It returns the levels and the (shared) error.
func (ls *lockstep) block(t testing.TB, label string, size int, transformed bool) ([]int32, error) {
	t.Helper()
	got, want := make([]int32, size*size), make([]int32, size*size)
	for i := range got {
		got[i], want[i] = -7, 7 // both spellings must clear the block
	}
	d := decoder{br: ls.prod}
	gotErr := trapDecodeError(func() { d.parseResidual(got, size, transformed) })
	wantErr := trapDecodeError(func() { parseResidualPerBin(ls.ref, want, size, transformed) })
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: parse ends %q (%v), per-bin reference %q (%v)", label, errClass(gotErr), gotErr, errClass(wantErr), wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: level [%d] = %d, per-bin reference %d", label, i, got[i], want[i])
		}
	}
	if p, r := ls.state(); !reflect.DeepEqual(p, r) {
		t.Fatalf("%s: state after the block\n%+v\nper-bin reference\n%+v", label, p, r)
	}
	return got, nil
}

// The header bins between blocks are read from both sides, which must agree;
// that makes a lockstep a binDecoder the leaf walk below can run on.
func (ls *lockstep) bit(slot int) int {
	b := ls.prod.bit(slot)
	if r := ls.ref.bit(slot); r != b {
		panic(fmt.Sprintf("header bin on slot %d: %d, reference %d", slot, b, r))
	}
	return b
}

func (ls *lockstep) bypassBits(n uint) uint32 {
	v := ls.prod.bypassBits(n)
	if r := ls.ref.bypassBits(n); r != v {
		panic(fmt.Sprintf("%d header bypass bits: %d, reference %d", n, v, r))
	}
	return v
}

func (ls *lockstep) expGolomb(k uint) uint32 {
	v := ls.prod.expGolomb(k)
	if r := egDecode(ls.ref, k); r != v {
		panic(fmt.Sprintf("header Exp-Golomb code of order %d: %d, reference %d", k, v, r))
	}
	return v
}

// walkLeaves consumes a chunk's syntax as parseCU and parseLeaf do, calling
// leaf where each residual block starts. It keeps no mode or motion state:
// only which bins sit between the blocks matters here.
func walkLeaves(pc *parsedContainer, c *chunkMeta, br binDecoder, leaf func(size int)) {
	d := decoder{prof: pc.prof, tools: pc.tools}
	var cu func(size, depth int)
	cu = func(size, depth int) {
		kind := splitKindFor(d.prof, d.tools, size)
		if kind == splitForced || kind == splitSignaled && br.bit(splitSlot(depth)) == 1 {
			for i := 0; i < 4; i++ {
				cu(size/2, depth+1)
			}
			return
		}
		inter := d.tools.InterPred && d.fIdx > 0 && br.bit(ctxInterFlag) == 1
		switch {
		case inter:
			br.expGolomb(1)
			br.expGolomb(1)
		case d.tools.IntraPred:
			if br.bit(ctxModeSame) == 0 {
				br.bypassBits(modeIdxBits(len(d.prof.Modes)))
			}
		}
		leaf(size)
	}
	ctu := pc.prof.CTUSize
	for i, dim := range c.dims {
		d.fIdx = i
		for n := padTo(dim[0], ctu) / ctu * (padTo(dim[1], ctu) / ctu); n > 0; n-- {
			cu(ctu, 0)
		}
	}
}

// corpusDir holds the golden conformance corpus (internal/conformance owns it
// and its -update generator).
const corpusDir = "../conformance/testdata"

// goldenChunks calls f on every chunk of every golden stream.
func goldenChunks(t testing.TB, f func(name string, pc *parsedContainer, c *chunkMeta)) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.l265"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden streams (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := parseContainer(data, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pc.chunks {
			f(fmt.Sprintf("%s chunk %d", filepath.Base(path), i), pc, &pc.chunks[i])
		}
	}
}

// chunkLockstep opens a chunk payload for lockstep parsing under the
// container's entropy coder.
func chunkLockstep(t testing.TB, pc *parsedContainer, c *chunkMeta) *lockstep {
	switch {
	case pc.tools.Backend == BackendRANS:
		var rcs [2]ransChunk
		for i := range rcs {
			if err := parseRansPayload(&rcs[i], c.payload, pc.ransTab, codedPixels(c.dims, pc.prof.CTUSize)); err != nil {
				t.Fatal(err)
			}
		}
		return newChunkLockstep(&rcs[0], &rcs[1])
	case pc.tools.CABAC:
		return newCabacLockstep(c.payload, nil)
	}
	return literalLockstep(t, c.payload, codedPixels(c.dims, pc.prof.CTUSize))
}

// literalLockstep pairs a literal chunk of a chunk coding pixels pixels with
// the raw reader over the same payload.
func literalLockstep(t testing.TB, payload []byte, pixels int64) *lockstep {
	lit := new(ransChunk)
	if err := newLiteralChunk(lit, payload, pixels); err != nil {
		t.Fatal(err)
	}
	return newChunkLockstep(lit, newRawBinDec(payload))
}

// residualEncoder emits level blocks through emitResidual into one payload of
// the given coder: the encoder side of the tests below.
type residualEncoder struct {
	e   encoder
	ctx contexts
	rec *ransRecord
}

func newResidualEncoder(tools Tools) *residualEncoder {
	re := &residualEncoder{}
	re.ctx.init()
	switch {
	case tools.Backend == BackendRANS:
		re.rec = newRansRecord()
		re.e.bw = ransBinEnc{rec: re.rec, ctx: &re.ctx}
	case tools.CABAC:
		re.e.bw = &cabacBinEnc{e: cabac.NewEncoder(), ctx: &re.ctx}
	default:
		re.e.bw = rawBinEnc{bits.NewWriter()}
	}
	return re
}

func (re *residualEncoder) emit(lev []int32, size int, transformed bool) {
	re.e.emitResidual(lev, size, transformed)
}

// open finishes the payload and returns a lockstep over it.
func (re *residualEncoder) open(t testing.TB) *lockstep {
	if re.rec == nil {
		payload := append([]byte(nil), re.e.bw.finish()...)
		if _, ok := re.e.bw.(*cabacBinEnc); ok {
			return newCabacLockstep(payload, nil)
		}
		return literalLockstep(t, payload, maxDecodePixels)
	}
	tab := buildRansTable([]*ransRecord{re.rec})
	pc := &parsedContainer{prof: HEVC, tools: ransTools(), ransTab: &tab}
	return chunkLockstep(t, pc, &chunkMeta{payload: re.rec.assemble(&tab), dims: [][2]int{{1 << 12, 1 << 12}}})
}

var (
	cabacOnly = Tools{CABAC: true}
	rawOnly   = Tools{}
)

// TestParseResidualEquivalence holds the two non-test spellings of the
// residual syntax — cabac.DecodeLevels for CABAC, the concrete-reader loop for
// rANS and the raw ablation — to the per-bin loop that defines it: same levels,
// same context states, same bytes or bins consumed after every block, and the
// same error class where a payload is damaged.
func TestParseResidualEquivalence(t *testing.T) {
	// Every chunk of the golden corpus: all three coders, three profiles,
	// inter frames, the tool ablations.
	t.Run("golden", func(t *testing.T) {
		blocks := map[string]int{}
		goldenChunks(t, func(name string, pc *parsedContainer, c *chunkMeta) {
			ls := chunkLockstep(t, pc, c)
			walkLeaves(pc, c, ls, func(size int) {
				if _, err := ls.block(t, name, size, pc.tools.Transform); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				blocks[fmt.Sprint(pc.tools.Backend, pc.tools.CABAC)]++
			})
			if rc, ok := ls.prod.(*ransChunk); ok && rc.alias != 0 {
				if err := rc.close(); err != nil {
					t.Fatalf("%s: the walk left the chunk open: %v", name, err)
				}
			}
		})
		if len(blocks) != 3 {
			t.Fatalf("golden corpus covers coders %v, want CABAC, rANS and raw", blocks)
		}
	})

	// Drawn blocks through emitResidual, many to a payload so that contexts
	// and the escape order adapt across them.
	coders := []struct {
		name  string
		tools Tools
		draws int
	}{{"cabac", cabacOnly, 20000}, {"rans", ransTools(), 6000}, {"raw", rawOnly, 2000}}
	for _, cd := range coders {
		t.Run("drawn/"+cd.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			const perPayload = 40
			type blk struct {
				lev         []int32
				size        int
				transformed bool
			}
			for draw := 0; draw < cd.draws; draw += perPayload {
				re := newResidualEncoder(cd.tools)
				var blks []blk
				for b := 0; b < perPayload; b++ {
					size := 4 << uint((draw/perPayload+b)%4)
					k := blk{make([]int32, size*size), size, (draw+b)%3 != 0}
					drawLevels(rng, k.lev, size, k.transformed, rng.Intn(9))
					re.emit(k.lev, size, k.transformed)
					blks = append(blks, k)
				}
				ls := re.open(t)
				for b, k := range blks {
					label := fmt.Sprintf("payload %d block %d (n=%d transformed=%v)", draw/perPayload, b, k.size, k.transformed)
					got, err := ls.block(t, label, k.size, k.transformed)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i := range k.lev {
						if got[i] != k.lev[i] {
							t.Fatalf("%s: level [%d] decodes to %d, encoded %d", label, i, got[i], k.lev[i])
						}
					}
				}
			}
		})
	}

	// One past the cap: every coder refuses it, as the reference does.
	t.Run("cap", func(t *testing.T) {
		for _, cd := range coders {
			for _, over := range []int32{maxLevel + 1, -maxLevel - 1, 1 << 30} {
				re := newResidualEncoder(cd.tools)
				lev := make([]int32, 64)
				lev[9] = over
				re.emit(lev, 8, true)
				if _, err := re.open(t).block(t, cd.name, 8, true); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: level %d parses with error %v, want ErrCorrupt", cd.name, over, err)
				}
			}
		}
	})

	// Damaged CABAC payloads: a valid payload cut at every byte (the engine
	// reads zeros past the end and keeps counting), and random bytes.
	t.Run("cut", func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		re := newResidualEncoder(cabacOnly)
		lev := make([]int32, 256)
		sizes := []int{16, 8, 16, 4, 16}
		for _, size := range sizes {
			drawLevels(rng, lev[:size*size], size, true, 4+2*rng.Intn(2))
			re.emit(lev[:size*size], size, true)
		}
		payload := append([]byte(nil), re.e.bw.finish()...)
		for cut := 0; cut <= len(payload); cut++ {
			ls := newCabacLockstep(payload[:cut], nil)
			for b, size := range sizes {
				if _, err := ls.block(t, fmt.Sprintf("cut at %d of %d, block %d", cut, len(payload), b), size, true); err != nil {
					break
				}
			}
		}
		for trial := 0; trial < 3000; trial++ {
			junk := make([]byte, rng.Intn(200))
			rng.Read(junk)
			if trial%5 == 0 {
				for i := range junk {
					junk[i] |= 0xF0 // long runs of ones: escape prefixes that overflow
				}
			}
			ls := newCabacLockstep(junk, nil)
			for b := 0; b < 6; b++ {
				if _, err := ls.block(t, fmt.Sprintf("junk %d block %d", trial, b), 4<<uint(rng.Intn(4)), rng.Intn(2) == 0); err != nil {
					break
				}
			}
		}
	})

	// Contexts at the two ends of their range (p −= p>>5 stops at 31,
	// p += (2048−p)>>5 at 2017), where a bin narrows the range the most.
	t.Run("contexts", func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		for _, p0 := range []float64{31.0 / 2048, 2017.0 / 2048, 1.0 / 2048, 2047.0 / 2048} {
			for trial := 0; trial < 500; trial++ {
				junk := make([]byte, 16+rng.Intn(400))
				rng.Read(junk)
				ls := newCabacLockstep(junk, func(c *contexts) {
					for s := range c {
						c[s] = cabac.NewContext(p0)
					}
				})
				for b := 0; b < 4; b++ {
					if _, err := ls.block(t, fmt.Sprintf("p0 %v trial %d block %d", p0, trial, b), 4<<uint(rng.Intn(4)), true); err != nil {
						break
					}
				}
			}
		}
	})

	// Pre-decoded chunks that run dry: queues and bypass windows of drawn
	// length, so that the parse asks for a bin or a bit that is not there.
	t.Run("dry", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for trial := 0; trial < 3000; trial++ {
			var rcs [2]*ransChunk
			ctxBins, window := make([]uint8, rng.Intn(600)), make([]byte, rng.Intn(40))
			for i := range ctxBins {
				ctxBins[i] = uint8(rng.Intn(2))
			}
			rng.Read(window)
			bins := append(unpackBits(nil, window), ctxBins...)
			var prefix [nQueues + 1]int
			prefix[1] = 8 * len(window)
			for q := 2; q <= nQueues; q++ {
				prefix[q] = min(prefix[q-1]+rng.Intn(2*len(ctxBins)/nCtxSlots+2), len(bins))
			}
			for i := range rcs {
				rcs[i] = &ransChunk{bins: bins, prefix: prefix, alias: -1, bypassN: 8 * len(window)}
				copy(rcs[i].next[:], prefix[:nQueues])
			}
			ls := newChunkLockstep(rcs[0], rcs[1])
			if trial%3 == 0 {
				ls = literalLockstep(t, window, maxDecodePixels)
			}
			for b := 0; b < 6; b++ {
				if _, err := ls.block(t, fmt.Sprintf("dry %d block %d", trial, b), 4<<uint(rng.Intn(4)), rng.Intn(2) == 0); err != nil {
					break
				}
			}
		}
	})
}

// FuzzParseResidual: arbitrary bytes as a CABAC payload, a block size and a
// scan kind; the block form and the per-bin loop give the same levels and
// final state, or the same error class, for as many blocks as the input is
// long. Seeded with the golden CABAC payloads and the boundary payloads of
// the test above, which plain `go test` replays.
func FuzzParseResidual(f *testing.F) {
	goldenChunks(f, func(_ string, pc *parsedContainer, c *chunkMeta) {
		if pc.tools.CABAC && pc.tools.Backend == BackendCABAC {
			f.Add(c.payload, uint8(len(c.payload)), pc.tools.Transform)
		}
	})
	for _, l := range []int32{1, -2, 3, maxLevel, -maxLevel, maxLevel + 1, 1 << 30} {
		for sel := uint8(0); sel < 4; sel++ {
			re := newResidualEncoder(cabacOnly)
			lev := make([]int32, 16<<(2*sel))
			lev[0], lev[len(lev)-1] = l, -l
			re.emit(lev, 4<<sel, sel%2 == 0)
			f.Add(append([]byte(nil), re.e.bw.finish()...), sel, sel%2 == 0)
		}
	}
	f.Add([]byte{}, uint8(3), true)
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(1), true)
	f.Fuzz(func(t *testing.T, payload []byte, sizeSel uint8, transformed bool) {
		ls := newCabacLockstep(payload, nil)
		for b := 0; b <= len(payload)/16 && b < 64; b++ {
			if _, err := ls.block(t, fmt.Sprintf("block %d", b), 4<<((sizeSel+uint8(b))%4), transformed); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("block %d: error %v is not ErrCorrupt", b, err)
				}
				return
			}
		}
	})
}

// TestLevelCap pins both sides of maxLevel. The largest level an encode can
// produce — ±255 residuals at QP 0, every size, DCT and DST — is the constant
// 32×32 block's DC, 12 950, a fifth of the cap; and a stream carrying a level
// past the cap is ErrCorrupt through the public Decode on either backend,
// while one carrying the cap itself decodes.
func TestLevelCap(t *testing.T) {
	s := newScratch()
	var largest int32
	for _, size := range []int{4, 8, 16, 32} {
		for _, isIntra := range []bool{true, false} {
			e := &encoder{prof: HEVC, tools: AllTools, qp: 0, scr: s}
			extremeBlocks(size, func(orig, pred []int32) {
				lev, _, _, _ := e.trialResidual(orig, pred, size, isIntra)
				for _, l := range lev {
					largest = max(largest, l, -l)
				}
			})
		}
	}
	if largest != 12950 {
		t.Errorf("largest level of a ±255 residual at QP 0 is %d, want 12950 (maxLevel %d)", largest, maxLevel)
	}

	// Without partitioning or prediction a 32×32 frame is four 16×16 leaves
	// and its payload exactly their four residual blocks.
	for _, tools := range []Tools{{CABAC: true, Transform: true}, {CABAC: true, Transform: true, Backend: BackendRANS}} {
		for _, tc := range []struct {
			level int32
			want  error
		}{{maxLevel, nil}, {-maxLevel, nil}, {maxLevel + 1, ErrCorrupt}, {-maxLevel - 1, ErrCorrupt}, {1 << 30, ErrCorrupt}} {
			re := newResidualEncoder(tools)
			lev := make([]int32, 256)
			lev[0], lev[17] = 5, tc.level
			re.emit(lev, 16, true)
			for leaf := 1; leaf < 4; leaf++ {
				re.emit(make([]int32, 256), 16, true)
			}
			var stream []byte
			dims := [][2]int{{32, 32}}
			if tools.Backend == BackendRANS {
				tab := buildRansTable([]*ransRecord{re.rec})
				chunks := []chunkRec{{payload: re.rec.assemble(&tab), planes: 1}}
				seal(chunks)
				stream, _ = writeContainer(versionChecksummed, dims, 51, HEVC, tools, &tab, chunks)
			} else {
				chunks := []chunkRec{{payload: append([]byte(nil), re.e.bw.finish()...), planes: 1}}
				stream, _ = writeContainer(1, dims, 51, HEVC, tools, nil, chunks)
			}
			var planes [2][]*frame.Plane
			for i, workers := range []int{1, stagedWorkers} {
				dec, err := Decode(context.Background(), stream, DecodeConfig{Workers: workers})
				if !errors.Is(err, tc.want) {
					t.Fatalf("backend %d level %d workers %d: Decode error %v, want %v", tools.Backend, tc.level, workers, err, tc.want)
				}
				if err == nil {
					planes[i] = dec.Planes
				}
			}
			if tc.want == nil && !samePlanes(planes[0], planes[1]) {
				t.Fatalf("backend %d level %d: inline and staged decodes differ", tools.Backend, tc.level)
			}
		}
	}
}

// benchParseResidual times the residual parse of one block (b.N counts
// blocks) over payloads of 64 weight-plane level blocks, dense and sparse,
// through the decoder's own spelling and through the per-bin loop.
func benchParseResidual(b *testing.B, tools Tools) {
	const blocks = 64
	for _, size := range []int{8, 16, 32} {
		for _, pt := range benchQPs {
			re := newResidualEncoder(tools)
			for _, lev := range benchLevelBlocks(size, blocks, pt.qp) {
				re.emit(lev, size, true)
			}
			ls := re.open(b)
			lev := make([]int32, size*size)
			// rewind returns a reader to the start of the payload.
			var start cabac.Decoder
			if c, ok := ls.prod.(*cabacBinDec); ok {
				start = *c.d
			}
			rewind := func(reader any) {
				switch c := reader.(type) {
				case cabacPerBin:
					*c.d = start
					c.ctx.init()
				case *cabacBinDec:
					*c.d = start
					c.ctx.init()
				case *ransChunk:
					copy(c.next[:], c.prefix[:nQueues])
				}
			}
			d := decoder{br: ls.prod}
			b.Run(fmt.Sprintf("%s/n%d", pt.name, size), func(b *testing.B) {
				b.SetBytes(int64(size * size))
				for i := 0; i < b.N; i++ {
					if i%blocks == 0 {
						rewind(ls.prod)
					}
					d.parseResidual(lev, size, true)
				}
			})
			b.Run(fmt.Sprintf("%s/n%d-perbin", pt.name, size), func(b *testing.B) {
				b.SetBytes(int64(size * size))
				for i := 0; i < b.N; i++ {
					if i%blocks == 0 {
						rewind(ls.ref)
					}
					parseResidualPerBin(ls.ref, lev, size, true)
				}
			})
		}
	}
}

func BenchmarkParseResidualCABAC(b *testing.B) { benchParseResidual(b, cabacOnly) }
func BenchmarkParseResidualRANS(b *testing.B)  { benchParseResidual(b, ransTools()) }
