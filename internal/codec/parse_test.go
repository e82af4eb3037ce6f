package codec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// reference reader for the definition (refParse). state returns what each
// side has consumed and adapted — engine registers or read cursors, and the
// contexts.
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

// newChunkLockstep pairs the block form with parseSymbolsDef over two
// identical pre-decoded rANS chunks. What each side has consumed is its read
// cursors, per class and in the bypass window.
func newChunkLockstep(prod, ref *ransChunk) *lockstep {
	return &lockstep{prod: prod, ref: ref, state: func() (any, any) {
		return [2]any{prod.next, prod.pos}, [2]any{ref.next, ref.pos}
	}}
}

// refParse parses a block by definition off a reference reader: the symbol
// syntax off a rANS chunk, the bin syntax off CABAC.
func refParse(ref perBinDecoder, lev []int32, size int, transformed bool) {
	if rc, ok := ref.(*ransChunk); ok {
		parseSymbolsDef(rc, lev, size, transformed)
		return
	}
	parseResidualPerBin(ref, lev, size, transformed)
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
	wantErr := trapDecodeError(func() { refParse(ls.ref, want, size, transformed) })
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
	d := decoder{prof: pc.prof.params(), tools: pc.tools}
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
				br.bypassBits(modeIdxBits(len(d.prof.modes)))
			}
		}
		leaf(size)
	}
	ctu := pc.prof.CTUSize()
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
		pc, err := parseContainer(data, false, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pc.chunks {
			f(fmt.Sprintf("%s chunk %d", filepath.Base(path), i), pc, &pc.chunks[i])
		}
	}
}

// newRansRecord is an empty chunk record, as encodeChunk starts one.
func newRansRecord() *ransRecord { return &ransRecord{bypass: bits.NewWriter()} }

// parseRansPayload frames and pre-decodes a rANS chunk payload into c, as
// decodeChunkPayload does.
func parseRansPayload(c *ransChunk, payload []byte, tabs *ransTables, chunkPixels int64) error {
	segs, err := c.readFraming(payload, tabs, chunkPixels)
	if err != nil {
		return err
	}
	return c.predecode(&segs, tabs)
}

// chunkLockstep opens a chunk payload for lockstep parsing under the
// container's entropy coder.
func chunkLockstep(t testing.TB, pc *parsedContainer, c *chunkMeta) *lockstep {
	if pc.tools.Backend != BackendRANS {
		return newCabacLockstep(c.payload, nil)
	}
	var rcs [2]ransChunk
	for i := range rcs {
		if err := parseRansPayload(&rcs[i], c.payload, pc.ransTabs, codedPixels(c.dims, pc.prof.CTUSize())); err != nil {
			t.Fatal(err)
		}
	}
	return newChunkLockstep(&rcs[0], &rcs[1])
}

// residualEncoder emits level blocks through its coder's levels into one
// payload: the encoder side of the tests below.
type residualEncoder struct {
	e   encoder
	ctx contexts
	rec *ransRecord
}

func newResidualEncoder(tools Tools) *residualEncoder {
	re := &residualEncoder{}
	re.ctx.init()
	if tools.Backend == BackendRANS {
		re.rec = newRansRecord()
		re.e.bw = ransBinEnc{re.rec}
	} else {
		re.e.bw = &cabacBinEnc{e: cabac.NewEncoder(), ctx: &re.ctx}
	}
	return re
}

func (re *residualEncoder) emit(lev []int32, size int, transformed bool) {
	re.e.bw.levels(lev, size, transformed)
}

// open finishes the payload and returns a lockstep over it.
func (re *residualEncoder) open(t testing.TB) *lockstep {
	if re.rec == nil {
		return newCabacLockstep(append([]byte(nil), re.e.bw.finish()...), nil)
	}
	tabs := buildRansTables([]*ransRecord{re.rec})
	pc := &parsedContainer{prof: HEVC, tools: ransTools(), ransTabs: tabs}
	return chunkLockstep(t, pc, &chunkMeta{payload: re.rec.assemble(tabs), dims: [][2]int{{1 << 12, 1 << 12}}})
}

// cabacOnly is entropy coding alone, on the CABAC backend.
var cabacOnly = Tools{}

// TestParseResidualEquivalence holds the two non-test spellings of the
// residual syntax — cabac.DecodeLevels for CABAC and the block form over
// symbols for rANS — to the definitions: the per-bin loop for the bin syntax,
// parseSymbolsDef for the symbol syntax. Same levels, same context states,
// same bytes, bins or symbols consumed after every block, and the same error
// class where a payload is damaged.
func TestParseResidualEquivalence(t *testing.T) {
	// Every chunk of the golden corpus: both coders, three profiles, inter
	// frames, the tool ablations.
	t.Run("golden", func(t *testing.T) {
		blocks := map[string]int{}
		goldenChunks(t, func(name string, pc *parsedContainer, c *chunkMeta) {
			ls := chunkLockstep(t, pc, c)
			walkLeaves(pc, c, ls, func(size int) {
				if _, err := ls.block(t, name, size, pc.tools.Transform); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				blocks[pc.tools.Backend.String()]++
			})
			if rc, ok := ls.prod.(*ransChunk); ok {
				if err := rc.close(); err != nil {
					t.Fatalf("%s: the walk left the chunk open: %v", name, err)
				}
			}
		})
		if len(blocks) != 2 {
			t.Fatalf("golden corpus covers coders %v, want CABAC and rANS", blocks)
		}
	})

	// Drawn blocks through the coder's levels, many to a payload so that
	// contexts and the escape order adapt across them. On CABAC the encode
	// side is held to its definition too: emitResidualPerBin into a second
	// engine leaves the same engine state and contexts after every block.
	coders := []struct {
		name  string
		tools Tools
		draws int
	}{{"cabac", cabacOnly, 20000}, {"rans", ransTools(), 6000}}
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
				var refCtx contexts
				refCtx.init()
				ref := &cabacBinEnc{e: cabac.NewEncoder(), ctx: &refCtx}
				var blks []blk
				for b := 0; b < perPayload; b++ {
					size := 4 << uint((draw/perPayload+b)%4)
					k := blk{make([]int32, size*size), size, (draw+b)%3 != 0}
					drawLevels(rng, k.lev, size, k.transformed, rng.Intn(9))
					re.emit(k.lev, size, k.transformed)
					blks = append(blks, k)
					if c, ok := re.e.bw.(*cabacBinEnc); ok {
						emitResidualPerBin(ref, k.lev, size, k.transformed)
						if !reflect.DeepEqual(*c.e, *ref.e) || re.ctx != refCtx {
							t.Fatalf("payload %d block %d (n=%d): the block encode and emitResidualPerBin part", draw/perPayload, b, size)
						}
					}
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

	// Pre-decoded chunks that run dry: classes and bypass windows of drawn
	// length, so that the parse asks for a symbol or a bit that is not there.
	t.Run("dry", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for trial := 0; trial < 3000; trial++ {
			window := make([]byte, rng.Intn(40))
			rng.Read(window)
			n := rng.Intn(600)
			var start [nClasses + 1]int
			for c := 1; c <= nClasses; c++ {
				start[c] = min(start[c-1]+rng.Intn(2*n/nClasses+2), n)
			}
			syms := make([]uint8, start[nClasses])
			for c := 0; c < nClasses; c++ {
				for i := start[c]; i < start[c+1]; i++ {
					syms[i] = uint8(rng.Intn(classAlphabet(c)))
				}
			}
			var rcs [2]*ransChunk
			for i := range rcs {
				// The window with the padding byte readFraming appends.
				padded := append(slices.Clone(window), 0)
				rcs[i] = &ransChunk{bitWindow: bitWindow{buf: padded, n: 8 * len(window)}, syms: syms, start: start}
				copy(rcs[i].next[:], start[:nClasses])
			}
			ls := newChunkLockstep(rcs[0], rcs[1])
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
		if pc.tools.Backend == BackendCABAC {
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
			e := &encoder{prof: HEVC.params(), tools: AllTools, qp: 0, scr: s}
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
	for _, tools := range []Tools{{Transform: true}, {Transform: true, Backend: BackendRANS}} {
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
				chunks := []chunkRec{{planes: 1}}
				ext := sealRans(chunks, []*ransRecord{re.rec})
				stream, _ = writeContainer(versionChecksummed, dims, 51, HEVC, tools, ext, chunks)
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
// through the decoder's own spelling and through its definition.
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
					copy(c.next[:], c.start[:nClasses])
					c.pos = 0
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
					refParse(ls.ref, lev, size, true)
				}
			})
		}
	}
}

// BenchmarkEmitResidualCABAC times the CABAC residual emit of one block (b.N
// counts blocks) over the level blocks benchParseResidual parses, 64 to a
// payload, through cabacBinEnc.levels and through its definition.
func BenchmarkEmitResidualCABAC(b *testing.B) {
	const blocks = 64
	for _, size := range []int{8, 16, 32} {
		for _, pt := range benchQPs {
			levs := benchLevelBlocks(size, blocks, pt.qp)
			var ctx contexts
			enc := &cabacBinEnc{e: cabac.NewEncoder(), ctx: &ctx}
			for _, arm := range []struct {
				suffix string
				emit   func(lev []int32)
			}{
				{"", func(lev []int32) { enc.levels(lev, size, true) }},
				{"-perbin", func(lev []int32) { emitResidualPerBin(enc, lev, size, true) }},
			} {
				b.Run(fmt.Sprintf("%s/n%d%s", pt.name, size, arm.suffix), func(b *testing.B) {
					b.SetBytes(int64(size * size))
					for i := 0; i < b.N; i++ {
						if i%blocks == 0 {
							enc.e.Reset()
							ctx.init()
						}
						arm.emit(levs[i%blocks])
					}
				})
			}
		}
	}
}

func BenchmarkParseResidualCABAC(b *testing.B) { benchParseResidual(b, cabacOnly) }
func BenchmarkParseResidualRANS(b *testing.B)  { benchParseResidual(b, ransTools()) }
