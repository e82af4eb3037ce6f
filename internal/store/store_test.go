package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
)

// testStack builds a deterministic stack of weight-like layers.
func testStack(seed int64, layers, rows, cols int) []*core.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*core.Tensor, layers)
	for l := range out {
		t := core.NewTensor(rows, cols)
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64() * 0.05)
		}
		out[l] = t
	}
	return out
}

func testOptions(workers int) core.Options {
	o := core.DefaultOptions()
	o.MaxFrameW, o.MaxFrameH = 64, 64
	o.Workers = workers
	o.Checksum = true
	return o
}

// encodeStack is a fatal-on-error checksummed encode at QP 28.
func encodeStack(t *testing.T, stack []*core.Tensor) *core.Encoded {
	t.Helper()
	e, err := testOptions(2).EncodeStackCtx(context.Background(), stack, 28)
	if err != nil {
		t.Fatalf("EncodeStack: %v", err)
	}
	return e
}

func openStore(t *testing.T, reg *obs.Registry) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// putManifest writes man as model's manifest.
func putManifest(t *testing.T, s *Store, man any, model string) {
	t.Helper()
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.root, "manifests", model+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// TestPackFetchRoundTrip pins the store's core contract: a fetched tensor is
// byte-identical to the packed one — same stream, same metadata — for both
// checksummed (v3) and legacy containers.
func TestPackFetchRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := openStore(t, reg)

	attn := encodeStack(t, testStack(1, 4, 64, 128))
	mlpOpts := testOptions(2)
	mlpOpts.Checksum = false
	mlp, err := mlpOpts.EncodeStackCtx(context.Background(), testStack(2, 3, 64, 64), 30)
	if err != nil {
		t.Fatalf("EncodeStack: %v", err)
	}

	man, err := s.Pack("m1", []PackEntry{
		{Name: "attn", Params: []string{"l0.attn", "l1.attn", "l2.attn", "l3.attn"}, Enc: attn},
		{Name: "mlp", Enc: mlp},
	})
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if len(man.Tensors) != 2 || man.Model != "m1" {
		t.Fatalf("manifest = %+v", man)
	}
	if man.PackedBytes() != int64(len(attn.Stream)+len(mlp.Stream)) {
		t.Fatalf("PackedBytes = %d, want %d", man.PackedBytes(), len(attn.Stream)+len(mlp.Stream))
	}
	for i, name := range []string{"attn", "mlp"} {
		if tm := man.Tensors[i]; tm.Name != name {
			t.Fatalf("tensor %d: %+v, want %s", i, tm, name)
		}
	}

	got, err := s.Fetch("m1")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	for name, want := range map[string]*core.Encoded{"attn": attn, "mlp": mlp} {
		g, ok := got[name]
		if !ok {
			t.Fatalf("Fetch missing tensor %q", name)
		}
		if !bytes.Equal(g.Stream, want.Stream) {
			t.Errorf("%s: fetched stream differs from packed (%d vs %d bytes)", name, len(g.Stream), len(want.Stream))
		}
		if g.Layers != want.Layers || g.Rows != want.Rows || g.Cols != want.Cols ||
			g.QP != want.QP || g.MaxFrameW != want.MaxFrameW || g.MaxFrameH != want.MaxFrameH {
			t.Errorf("%s: metadata differs: got %+v", name, g)
		}
		if len(g.Scales) != len(want.Scales) {
			t.Fatalf("%s: %d scales, want %d", name, len(g.Scales), len(want.Scales))
		}
		for i := range g.Scales {
			if g.Scales[i] != want.Scales[i] || g.Zeros[i] != want.Zeros[i] {
				t.Fatalf("%s: quant metadata differs at %d", name, i)
			}
		}
	}

	// The fetched encode must decode — and identically to the original.
	opts := testOptions(4)
	wantDec, err := opts.DecodeStackCtx(context.Background(), attn)
	if err != nil {
		t.Fatalf("DecodeStack(original): %v", err)
	}
	gotDec, err := opts.DecodeStackCtx(context.Background(), got["attn"])
	if err != nil {
		t.Fatalf("DecodeStack(fetched): %v", err)
	}
	for l := range wantDec {
		for i := range wantDec[l].Data {
			if wantDec[l].Data[i] != gotDec[l].Data[i] {
				t.Fatalf("layer %d value %d differs after round-trip", l, i)
			}
		}
	}

	if counter(reg, "store.pack.blobs") == 0 || counter(reg, "store.fetch.blobs") == 0 {
		t.Fatalf("store.* metrics not recorded: %+v", reg.Snapshot().Counters)
	}
}

// TestStatsIgnoresTempFiles: a writeAtomic temp file left in a chunk
// directory (by a write interrupted before its rename, or racing Stats) is
// counted neither as a blob nor in the byte total.
func TestStatsIgnoresTempFiles(t *testing.T) {
	s := openStore(t, nil)
	for _, data := range []string{"blob one", "blob two"} {
		if _, err := s.putBlob([]byte(data)); err != nil {
			t.Fatalf("putBlob: %v", err)
		}
	}
	dir := filepath.Join(s.root, "chunks", "ab")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	blobs, bytes, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := int64(len("blob one") + len("blob two")); blobs != 2 || bytes != want {
		t.Fatalf("Stats = %d blobs, %d bytes; want 2, %d", blobs, bytes, want)
	}
}

// TestPackDedupe pins content addressing: re-packing identical content writes
// no new blobs, and a perturbed checkpoint shares every unchanged chunk.
func TestPackDedupe(t *testing.T) {
	reg := obs.NewRegistry()
	s := openStore(t, reg)
	stack := testStack(7, 5, 64, 128)
	e1 := encodeStack(t, stack)

	if _, err := s.Pack("ckpt-a", []PackEntry{{Name: "w", Enc: e1}}); err != nil {
		t.Fatalf("Pack a: %v", err)
	}
	blobsAfterA, bytesAfterA, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	newAfterA := counter(reg, "store.pack.blobs_new")
	if int64(blobsAfterA) != newAfterA {
		t.Fatalf("Stats blobs %d != blobs_new %d", blobsAfterA, newAfterA)
	}

	// Same bytes under a new model name: zero new blobs, zero new bytes.
	if _, err := s.Pack("ckpt-b", []PackEntry{{Name: "w", Enc: e1}}); err != nil {
		t.Fatalf("Pack b: %v", err)
	}
	blobsAfterB, bytesAfterB, _ := s.Stats()
	if blobsAfterB != blobsAfterA || bytesAfterB != bytesAfterA {
		t.Fatalf("identical re-pack grew the store: %d/%d -> %d/%d blobs/bytes",
			blobsAfterA, bytesAfterA, blobsAfterB, bytesAfterB)
	}
	if got := counter(reg, "store.pack.blobs_new"); got != newAfterA {
		t.Fatalf("identical re-pack wrote %d new blobs", got-newAfterA)
	}
	if counter(reg, "store.pack.blobs") <= counter(reg, "store.pack.blobs_new") {
		t.Fatalf("dedup not visible in metrics: blobs=%d blobs_new=%d",
			counter(reg, "store.pack.blobs"), counter(reg, "store.pack.blobs_new"))
	}

	// Fine-tune one layer: only the chunks covering it (plus the header,
	// whose bytes shift) may be new; chunks of untouched layers dedup.
	tuned := testStack(7, 5, 64, 128)
	for i := range tuned[4].Data {
		tuned[4].Data[i] += 0.01
	}
	e2 := encodeStack(t, tuned)
	lay1, err := codec.Layout(e1.Stream)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	lay2, err := codec.Layout(e2.Stream)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	shared := 0
	for i := range lay2.Entries {
		a, b := lay1.Entries[i], lay2.Entries[i]
		if a.Length == b.Length && bytes.Equal(
			e1.Stream[a.Offset:a.Offset+int64(a.Length)],
			e2.Stream[b.Offset:b.Offset+int64(b.Length)]) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("perturbed checkpoint shares no chunk with the original; dedup test is vacuous")
	}
	before := counter(reg, "store.pack.blobs_new")
	if _, err := s.Pack("ckpt-tuned", []PackEntry{{Name: "w", Enc: e2}}); err != nil {
		t.Fatalf("Pack tuned: %v", err)
	}
	newBlobs := counter(reg, "store.pack.blobs_new") - before
	// 1 header + chunks were offered; `shared` chunks dedup.
	offered := int64(1 + len(lay2.Entries))
	if newBlobs > offered-int64(shared) {
		t.Fatalf("tuned pack wrote %d new blobs, want <= %d (shared %d of %d chunks)",
			newBlobs, offered-int64(shared), shared, len(lay2.Entries))
	}

	// Both checkpoints still fetch byte-identically from the shared pool.
	for model, want := range map[string]*core.Encoded{"ckpt-a": e1, "ckpt-tuned": e2} {
		got, err := s.Fetch(model)
		if err != nil {
			t.Fatalf("Fetch %s: %v", model, err)
		}
		if !bytes.Equal(got["w"].Stream, want.Stream) {
			t.Fatalf("%s: stream differs after dedup", model)
		}
	}
}

// TestStoreErrors pins the failure taxonomy: missing things are ErrNotFound,
// damaged blobs are ErrChecksum, and invalid inputs — names, and a
// manifest's hashes and lengths — are rejected up front.
func TestStoreErrors(t *testing.T) {
	s := openStore(t, nil)
	e := encodeStack(t, testStack(3, 2, 64, 64))

	if _, err := s.Fetch("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch missing model: %v", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := s.Pack(bad, []PackEntry{{Name: "w", Enc: e}}); err == nil {
			t.Fatalf("Pack accepted model name %q", bad)
		}
		if _, err := s.Pack("m", []PackEntry{{Name: bad, Enc: e}}); err == nil {
			t.Fatalf("Pack accepted tensor name %q", bad)
		}
	}
	if _, err := s.Pack("m", nil); err == nil {
		t.Fatal("Pack accepted empty entry list")
	}
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}, {Name: "w", Enc: e}}); err == nil {
		t.Fatal("Pack accepted duplicate tensor name")
	}
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Params: []string{"p0"}, Enc: e}}); err == nil {
		t.Fatal("Pack accepted param list shorter than the stack")
	}

	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}}); err != nil {
		t.Fatalf("Pack: %v", err)
	}

	// Bit-rot a chunk blob on disk: the content re-hash must catch it.
	man, err := s.Manifest("m")
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	victim := man.Tensors[0].Chunks[0].Hash
	path := filepath.Join(s.root, "chunks", victim[:2], victim)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatalf("write blob: %v", err)
	}
	if _, err := s.Fetch("m"); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("Fetch of bit-rotted blob: %v, want ErrChecksum", err)
	}

	// Delete it instead: ErrNotFound.
	if err := os.Remove(path); err != nil {
		t.Fatalf("remove blob: %v", err)
	}
	if _, err := s.Fetch("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch with missing blob: %v, want ErrNotFound", err)
	}

	// A chunk hash that is not 64 lowercase hex digits is ErrCorrupt before
	// any file is opened: not the uppercase twin of a stored blob, and not a
	// 64-character path that climbs out of the store to a planted decoy.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "decoy"), []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(filepath.Join(dir, "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := s2.Pack("m", []PackEntry{{Name: "w", Enc: e}})
	if err != nil {
		t.Fatal(err)
	}
	climb := "../" + strings.Repeat("./", 28) + "decoy"
	stored := man2.Tensors[0].Chunks[0].Hash
	for _, hash := range []string{strings.ToUpper(stored), climb} {
		man2.Tensors[0].Chunks[0].Hash = hash
		putManifest(t, s2, man2, "m")
		if _, err := s2.Fetch("m"); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("Fetch of chunk hash %q: %v, want ErrCorrupt", hash, err)
		}
	}

	// A manifest length is checked against the blob read, never trusted to
	// size a buffer: one far beyond memory is ErrChecksum, not a panic.
	man2.Tensors[0].Chunks[0].Hash = stored
	man2.Tensors[0].Header.Length = math.MaxInt
	putManifest(t, s2, man2, "m")
	if _, err := s2.Fetch("m"); !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("Fetch with a header length of MaxInt: %v, want ErrChecksum", err)
	}
}

// retiredTrailerStream reads codec's fixture of a stream at rest ending in
// the retired chunk-index trailer, and the offset where the trailer begins.
func retiredTrailerStream(t *testing.T) (data []byte, end int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "retired-trailer-v3-9x64x64.l265"))
	if err != nil {
		t.Fatal(err)
	}
	return data, bytes.LastIndex(data, []byte("L26X"))
}

// TestFetchOldManifest: manifests that earlier builds wrote still fetch
// every stream byte-identically, decoding to the packed values — one whose
// chunks also carry crc32c, plane_base and plane_count, and one naming a
// "trailer" blob, the retired chunk-index trailer those builds stored as a
// third blob kind. Fetch ignores that blob and returns the trailer-free
// container.
func TestFetchOldManifest(t *testing.T) {
	s := openStore(t, nil)
	e := encodeStack(t, testStack(4, 5, 64, 128))
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}}); err != nil {
		t.Fatal(err)
	}
	lay, err := codec.Layout(e.Stream)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.root, "manifests", "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, end := retiredTrailerStream(t)
	trailer, err := s.putBlob(fixture[end:])
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2)
	want, err := opts.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}

	for name, age := range map[string]func(tm map[string]any){
		"chunk fields": func(tm map[string]any) {
			chunks := tm["chunks"].([]any)
			if len(chunks) != len(lay.Entries) || len(chunks) < 2 {
				t.Fatalf("%d manifest chunks for %d layout entries", len(chunks), len(lay.Entries))
			}
			for i, c := range chunks {
				ce := lay.Entries[i]
				c := c.(map[string]any)
				c["crc32c"] = crc32.Checksum(e.Stream[ce.Offset:ce.Offset+int64(ce.Length)], crc32.MakeTable(crc32.Castagnoli))
				c["plane_base"], c["plane_count"] = ce.PlaneBase, ce.PlaneCount
			}
		},
		"trailer blob": func(tm map[string]any) { tm["trailer"] = trailer },
	} {
		var old map[string]any
		if err := json.Unmarshal(raw, &old); err != nil {
			t.Fatal(err)
		}
		age(old["tensors"].([]any)[0].(map[string]any))
		putManifest(t, s, old, "m")
		got, err := s.Fetch("m")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got["w"].Stream, e.Stream) {
			t.Fatalf("%s: fetched %d bytes, packed %d, or the bytes differ", name, len(got["w"].Stream), len(e.Stream))
		}
		dec, err := opts.DecodeStackCtx(context.Background(), got["w"])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := range want {
			for i := range want[l].Data {
				if dec[l].Data[i] != want[l].Data[i] {
					t.Fatalf("%s: layer %d value %d differs", name, l, i)
				}
			}
		}
	}
}

// TestRetiredTrailerRefused: Pack refuses a stream at rest ending in the
// retired chunk-index trailer as ErrCorrupt, as codec's Layout does, and
// writes no manifest.
func TestRetiredTrailerRefused(t *testing.T) {
	s := openStore(t, nil)
	data, _ := retiredTrailerStream(t)
	enc := &core.Encoded{Layers: 3, Rows: 64, Cols: 192, MaxFrameW: 64, MaxFrameH: 64, QP: 30,
		Scales: []float32{1, 1, 1}, Zeros: []float32{0, 0, 0}, Stream: data}
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: enc}}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Pack: %v, want ErrCorrupt", err)
	}
	if _, err := s.Manifest("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Manifest after a refused Pack: %v, want ErrNotFound", err)
	}
}

// TestConcurrentPackSameModel: packers of one model that run at once each
// write the manifest through a temp file of their own, so every Pack
// succeeds and the manifest left behind parses.
func TestConcurrentPackSameModel(t *testing.T) {
	s := openStore(t, nil)
	e := encodeStack(t, testStack(6, 2, 64, 64))
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}}); err != nil {
					errc <- err
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("round %d: Pack: %v", round, err)
		}
		if _, err := s.Manifest("m"); err != nil {
			t.Fatalf("round %d: Manifest: %v", round, err)
		}
	}
}

// TestModelLRU pins the cache contract: exact decode results, hit/miss/evict
// accounting, and resident bytes never exceeding the budget.
func TestModelLRU(t *testing.T) {
	reg := obs.NewRegistry()
	s := openStore(t, reg)
	stack := testStack(11, 4, 64, 128)
	e := encodeStack(t, stack)
	params := []string{"l0.w", "l1.w", "l2.w", "l3.w"}
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Params: params, Enc: e}}); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	opts := testOptions(2)
	want, err := opts.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	layerBytes := int64(64 * 128 * 4)

	m, err := s.OpenModel("m", opts, 2*layerBytes)
	if err != nil {
		t.Fatalf("OpenModel: %v", err)
	}
	if got := m.Stats().CompressedBytes; got != int64(len(e.Stream)) {
		t.Fatalf("CompressedBytes = %d, want %d", got, len(e.Stream))
	}

	check := func(layer int) {
		t.Helper()
		got, err := m.Layer("w", layer)
		if err != nil {
			t.Fatalf("Layer(%d): %v", layer, err)
		}
		for i := range want[layer].Data {
			if got.Data[i] != want[layer].Data[i] {
				t.Fatalf("layer %d value %d differs from full decode", layer, i)
			}
		}
	}
	// Budget holds 2 layers: 0 miss, 0 hit, 1 miss, 2 miss evicts 0,
	// 0 miss evicts 1.
	for _, l := range []int{0, 0, 1, 2, 0} {
		check(l)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 4 misses / 2 evictions", st)
	}
	if st.ResidentBytes != 2*layerBytes || st.MaxResidentBytes != 2*layerBytes {
		t.Fatalf("resident %d / max %d, want both %d", st.ResidentBytes, st.MaxResidentBytes, 2*layerBytes)
	}
	if counter(reg, "store.lru.hits") != 1 || counter(reg, "store.lru.misses") != 4 ||
		counter(reg, "store.lru.evictions") != 2 {
		t.Fatalf("lru metrics = %+v", reg.Snapshot().Counters)
	}
	if g := reg.Snapshot().Gauges["store.lru.resident_bytes"]; g != 2*layerBytes {
		t.Fatalf("resident gauge = %d, want %d", g, 2*layerBytes)
	}

	// Param names resolve to the same cached layers (layer 0 is resident).
	pt, err := m.Param("l0.w")
	if err != nil {
		t.Fatalf("Param: %v", err)
	}
	if pt.Data[0] != want[0].Data[0] {
		t.Fatal("Param returned wrong layer")
	}
	if got := m.Stats().Hits; got != 2 {
		t.Fatalf("Param on resident layer did not hit: hits = %d", got)
	}
	if _, err := m.Param("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Param(nope): %v", err)
	}
	if _, err := m.Layer("nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Layer(nope): %v", err)
	}
	if _, err := m.Layer("w", 99); err == nil {
		t.Fatal("Layer(99) accepted")
	}
	if got := m.Params(); len(got) != 4 || got[0] != "l0.w" {
		t.Fatalf("Params = %v", got)
	}

	// A budget smaller than one layer serves correctly but caches nothing.
	tiny, err := s.OpenModel("m", opts, layerBytes-1)
	if err != nil {
		t.Fatalf("OpenModel tiny: %v", err)
	}
	for _, l := range []int{0, 0} {
		if _, err := tiny.Layer("w", l); err != nil {
			t.Fatalf("tiny Layer: %v", err)
		}
	}
	if st := tiny.Stats(); st.Hits != 0 || st.ResidentBytes != 0 || st.Evictions != 0 {
		t.Fatalf("tiny-budget stats = %+v, want nothing cached", st)
	}

	// Budget <= 0 is unbounded: everything stays resident.
	all, err := s.OpenModel("m", opts, 0)
	if err != nil {
		t.Fatalf("OpenModel unbounded: %v", err)
	}
	for l := 0; l < 4; l++ {
		if _, err := all.Layer("w", l); err != nil {
			t.Fatalf("Layer: %v", err)
		}
	}
	if st := all.Stats(); st.ResidentBytes != 4*layerBytes || st.Evictions != 0 {
		t.Fatalf("unbounded stats = %+v", st)
	}
}

// TestModelConcurrent hammers one Model from many goroutines so the race
// detector can vet the LRU locking, and every result must still be exact.
func TestModelConcurrent(t *testing.T) {
	s := openStore(t, nil)
	stack := testStack(13, 4, 64, 128)
	e := encodeStack(t, stack)
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}}); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	opts := testOptions(1)
	want, err := opts.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	m, err := s.OpenModel("m", opts, 2*64*128*4)
	if err != nil {
		t.Fatalf("OpenModel: %v", err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				l := (g + i) % 4
				got, err := m.Layer("w", l)
				if err != nil {
					errc <- err
					return
				}
				if got.Data[17] != want[l].Data[17] {
					errc <- errors.New("concurrent Layer returned wrong data")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Hits+st.Misses != 8*20 {
		t.Fatalf("stats lost lookups: %+v", st)
	}
	if st.MaxResidentBytes > 2*64*128*4 {
		t.Fatalf("budget exceeded under concurrency: %+v", st)
	}
}

// TestManifestStitchValidation pins that a manifest gluing the wrong blobs
// together fails the strict re-parse instead of surviving to decode time.
func TestManifestStitchValidation(t *testing.T) {
	s := openStore(t, nil)
	e := encodeStack(t, testStack(5, 5, 64, 128))
	if _, err := s.Pack("m", []PackEntry{{Name: "w", Enc: e}}); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	path := filepath.Join(s.root, "manifests", "m.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}

	// Swap the first two chunk refs: each blob still verifies against its own
	// hash, but the reassembled container no longer parses.
	man, err := s.Manifest("m")
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	tm := &man.Tensors[0]
	if len(tm.Chunks) < 2 {
		t.Fatalf("need >= 2 chunks, got %d", len(tm.Chunks))
	}
	tm.Chunks[0], tm.Chunks[1] = tm.Chunks[1], tm.Chunks[0]
	if _, err := s.Pack("m2", nil); err == nil {
		t.Fatal("sanity: empty pack accepted")
	}
	// Write the shuffled manifest by hand.
	shuffled, err := os.CreateTemp(filepath.Dir(path), "m2-*.json")
	if err != nil {
		t.Fatalf("temp: %v", err)
	}
	man.Model = "m2"
	raw, _ := json.MarshalIndent(man, "", "  ")
	if _, err := shuffled.Write(raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	shuffled.Close()
	if err := os.Rename(shuffled.Name(), filepath.Join(s.root, "manifests", "m2.json")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := s.Fetch("m2"); err == nil {
		t.Fatal("Fetch accepted a manifest with shuffled chunk order")
	}

	// A syntactically broken manifest is ErrCorrupt.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate manifest: %v", err)
	}
	if _, err := s.Manifest("m"); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("truncated manifest: %v, want ErrCorrupt", err)
	}
}
