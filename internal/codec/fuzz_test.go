package codec

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// typedOrNil fails the fuzz run if err is non-nil but matches none of the
// decode-error taxonomy — the contract is that hostile bytes produce typed
// errors, not ad-hoc ones and never panics.
func typedOrNil(t *testing.T, label string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("%s: untyped decode error %v", label, err)
	}
}

// FuzzDecode drives Decode with arbitrary bytes in every DecodeConfig
// combination: strict and Partial, whole-stream and plane-windowed. The
// invariants, checked on every input the fuzzer invents:
//
//   - no combination panics (the fuzz engine fails the run on panic);
//   - every rejection, and every reported ChunkError, is typed (ErrCorrupt /
//     ErrTruncated / ErrChecksum);
//   - when the strict decode accepts, the Partial one agrees: no chunk
//     errors, identical plane geometry and pixels;
//   - a windowed decode that succeeds returns the same planes as the crop of
//     the full decode, strict and Partial alike;
//   - a decode with workers to spare (reconstruct stage on its own goroutine)
//     ends in the same error class and planes as the one-worker decode, with
//     the goroutine count back where it was.
//
// Seeded with one valid container of each version and every golden
// conformance vector (../conformance/testdata/*.l265 — all profiles, tool
// combinations, and degenerate shapes), so the fuzzer starts from deep
// coverage rather than rediscovering the header format bit by bit.
func FuzzDecode(f *testing.F) {
	v1, v2, v3, _ := corpusStreams(f)
	f.Add(v1)
	f.Add(v2)
	f.Add(v3)
	f.Add([]byte{})
	f.Add([]byte("L265"))
	// A truncated v3 prefix keeps the fuzzer exploring the chunk table.
	f.Add(v3[:len(v3)/2])
	// A stream at rest ending in the trailer earlier builds wrote: its framing
	// (magic, bodyLen, trailer CRC) is its own parse surface, so seed a whole
	// one, a cut inside the trailer, and a trailer grafted onto the v3 seed.
	indexed, _ := indexedStream(f)
	f.Add(indexed)
	f.Add(indexed[:len(indexed)-trailerCRCLen-1])
	graft := append(append([]byte(nil), v3...), indexed[len(indexed)-64:]...)
	f.Add(graft)
	// The golden conformance corpus: known-good streams across every
	// profile, container version and awkward shape the encoder ships.
	goldens, err := filepath.Glob(filepath.Join(corpusDir, "*.l265"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) == 0 {
		f.Fatal("no golden vectors found — run go test ./internal/conformance -update")
	}
	for _, path := range goldens {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if strings.Contains(path, "hevc") {
			f.Add(blob[:len(blob)/2])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		strict, strictErr := Decode(ctx, data, DecodeConfig{Workers: 1})
		typedOrNil(t, "strict", strictErr)

		// The staged path (reconstruct on its own goroutine, DESIGN.md §13.4)
		// must be indistinguishable from the inline one above and must have
		// joined its goroutine by the time Decode returns.
		baseline := runtime.NumGoroutine()
		staged, stagedErr := Decode(ctx, data, DecodeConfig{Workers: stagedWorkers})
		if errClass(stagedErr) != errClass(strictErr) {
			t.Fatalf("inline decode is %q, staged is %q (%v / %v)", errClass(strictErr), errClass(stagedErr), strictErr, stagedErr)
		}
		if strictErr == nil && !samePlanes(strict.Planes, staged.Planes) {
			t.Fatal("staged decode's planes differ from the inline decode's")
		}
		awaitGoroutines(t, "staged", baseline)

		res, partialErr := Decode(ctx, data, DecodeConfig{Workers: 1, Partial: true})
		typedOrNil(t, "partial", partialErr)

		if strictErr == nil {
			// Accepted streams must decode identically under Partial.
			if partialErr != nil {
				t.Fatalf("strict accepted but partial rejected: %v", partialErr)
			}
			if !res.OK() {
				t.Fatalf("strict accepted but partial reports chunk errors: %v", res.Errors)
			}
			if len(res.Planes) != len(strict.Planes) {
				t.Fatalf("plane counts: strict %d, partial %d", len(strict.Planes), len(res.Planes))
			}
			for i := range strict.Planes {
				if !strict.Planes[i].Equal(res.Planes[i]) {
					t.Fatalf("plane %d differs between strict and partial decode", i)
				}
			}
		}
		if partialErr != nil {
			return // the shared geometry is unusable: no window is defined
		}
		for _, ce := range res.Errors {
			typedOrNil(t, "chunk", ce.Err)
		}
		// Plane windows: the first and the last plane, strict and Partial.
		// A parsed container has at least one plane, so both are in range.
		for _, first := range []int{0, len(res.Planes) - 1} {
			for _, partial := range []bool{false, true} {
				win, err := Decode(ctx, data, DecodeConfig{Workers: 1, First: first, Count: 1, Partial: partial})
				typedOrNil(t, "window", err)
				if err != nil {
					if partial {
						t.Fatalf("partial window [%d,+1) rejected a stream the partial decode parsed: %v", first, err)
					}
					continue
				}
				for _, ce := range win.Errors {
					typedOrNil(t, "window chunk", ce.Err)
				}
				got, want := win.Planes[0], res.Planes[first]
				if (got == nil) != (want == nil) || (got != nil && !got.Equal(want)) {
					t.Fatalf("window [%d,+1) partial=%v differs from the full decode's crop", first, partial)
				}
			}
		}
	})
}
