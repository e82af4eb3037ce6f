package codec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/intra"
)

func TestScanOrderIsPermutation(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		s, _ := residualScan(n, true)
		if len(s) != n*n {
			t.Fatalf("n=%d: scan length %d", n, len(s))
		}
		seen := make([]bool, n*n)
		for _, p := range s {
			if p < 0 || p >= n*n || seen[p] {
				t.Fatalf("n=%d: bad or duplicate position %d", n, p)
			}
			seen[p] = true
		}
	}
}

func TestScanOrderFrontsLowFrequencies(t *testing.T) {
	// The scan must start at DC and visit anti-diagonals in order.
	for _, n := range []int{4, 8, 16, 32} {
		s, _ := residualScan(n, true)
		if s[0] != 0 {
			t.Fatalf("n=%d: scan does not start at DC", n)
		}
		prevDiag := 0
		for _, p := range s {
			d := p/n + p%n
			if d < prevDiag {
				t.Fatalf("n=%d: diagonal decreased (%d after %d)", n, d, prevDiag)
			}
			if d > prevDiag+1 {
				t.Fatalf("n=%d: diagonal skipped (%d after %d)", n, d, prevDiag)
			}
			prevDiag = d
		}
	}
}

func TestRasterOrder(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		s, _ := residualScan(n, false)
		if len(s) != n*n {
			t.Fatalf("n=%d: raster length %d", n, len(s))
		}
		for i, p := range s {
			if p != i {
				t.Fatalf("n=%d: raster[%d] = %d", n, i, p)
			}
		}
	}
}

// TestScanTablesMatchDefinition pins the init-time tables against the zigzag's
// definition stated independently of the walk that builds them:
// anti-diagonals in order, even ones from bottom-left to top-right (x
// ascending), odd ones back down (x descending).
func TestScanTablesMatchDefinition(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		want := make([]int, n*n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			pa, pb := want[a], want[b]
			da, db := pa/n+pa%n, pb/n+pb%n
			if da != db {
				return da < db
			}
			if da%2 == 0 {
				return pa%n < pb%n
			}
			return pa%n > pb%n
		})
		got, _ := residualScan(n, true)
		if len(got) != len(want) {
			t.Fatalf("n=%d: scan length %d", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: scan[%d] = %d, definition says %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestScanLookupsAllocationFree: the scans are looked up once per RD trial,
// emitted leaf and parsed leaf from every worker, so a lookup must neither
// allocate nor (being a plain table read) take a lock.
func TestScanLookupsAllocationFree(t *testing.T) {
	var sink int
	if a := testing.AllocsPerRun(100, func() {
		for _, n := range []int{4, 8, 16, 32} {
			zigzag, sig := residualScan(n, true)
			raster, _ := residualScan(n, false)
			sink += len(zigzag) + len(raster) + len(sig)
		}
	}); a != 0 {
		t.Fatalf("scan lookups allocate %.0f times per 8", a)
	}
	_ = sink
}

// TestEarlyExitSADKeepsTheRanking: scoring modes with Scorer.SAD against the
// running bound must select the same modes, in the same order, as scoring
// every mode in full and ranking afterwards — on every kernel path, for mode
// lists of any length and order, raw and smoothed, on flat blocks full of
// ties as much as on busy ones.
func TestEarlyExitSADKeepsTheRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sc intra.Scorer
	for trial := 0; trial < 5000; trial++ {
		size := 4 << rng.Intn(4)
		n2 := size * size
		perm := rng.Perm(intra.NumModes)[:1+rng.Intn(intra.NumModes)]
		modes := len(perm)
		amp := int32(1 + rng.Intn(3)) // small amplitudes: many tying scores
		if trial%4 == 0 {
			amp = 255
		}
		orig := make([]int32, n2)
		for i := range orig {
			orig[i] = rng.Int31n(amp + 1)
		}
		refs := intra.NewRefs(size)
		refs.Corner = rng.Int31n(amp + 1)
		for i := range refs.Above {
			refs.Above[i], refs.Left[i] = rng.Int31n(amp+1), rng.Int31n(amp+1)
		}
		smoothed := make([]bool, modes)
		for m := range smoothed {
			smoothed[m] = rng.Intn(2) == 0
		}
		k := rdCandidates - trial%2

		kernelPaths(func(simd bool) {
			sc.Reset(size, orig, refs, intra.NewRefs(size))
			full := intra.Ranking{K: k}
			early := intra.Ranking{K: k}
			sads := make([]int64, modes)
			for m, mode := range perm {
				sads[m] = sc.SAD(intra.Mode(mode), smoothed[m], math.MaxInt64)
				full.Offer(m, sads[m])
				early.Offer(m, sc.SAD(intra.Mode(mode), smoothed[m], early.Bound()))
			}
			// The contract both must meet: a stable sort by (SAD ascending,
			// scoring index descending), cut at k.
			ref := make([]int, modes)
			for i := range ref {
				ref[i] = i
			}
			sort.SliceStable(ref, func(a, b int) bool {
				if sads[ref[a]] != sads[ref[b]] {
					return sads[ref[a]] < sads[ref[b]]
				}
				return ref[a] > ref[b]
			})
			if len(ref) > k {
				ref = ref[:k]
			}
			if full.N != len(ref) {
				t.Fatalf("trial %d simd %v: full scoring kept %d modes, want %d", trial, simd, full.N, len(ref))
			}
			for i, m := range ref {
				if full.Idx[i] != m {
					t.Fatalf("trial %d simd %v: full scoring ranked %v, stable sort %v", trial, simd, full.Idx[:full.N], ref)
				}
			}
			if early.N != full.N || early.Idx != full.Idx {
				t.Fatalf("trial %d (size %d, %d modes, k %d, simd %v): early exit picked %v, full scoring %v",
					trial, size, modes, k, simd, early.Idx[:early.N], full.Idx[:full.N])
			}
			for i := 0; i < full.N; i++ {
				if early.Score[i] != full.Score[i] {
					t.Fatalf("trial %d simd %v: rank %d kept a partial score %d, full %d", trial, simd, i, early.Score[i], full.Score[i])
				}
			}
		})
	}
}

func TestDiagBinRange(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		for pos := 0; pos < n*n; pos++ {
			b := diagBin(pos, n)
			if b < 0 || b > 8 {
				t.Fatalf("n=%d pos=%d: bin %d out of range", n, pos, b)
			}
		}
		if diagBin(0, n) != 0 {
			t.Fatalf("n=%d: DC not in bin 0", n)
		}
		// The highest-frequency position must land in the highest bin used.
		hi := diagBin(n*n-1, n)
		for pos := 0; pos < n*n; pos++ {
			if diagBin(pos, n) > hi {
				t.Fatalf("n=%d: position %d outranks the corner bin", n, pos)
			}
		}
	}
}

// TestToolsBitsRoundTrip: every stage combination survives the tools byte,
// which always carries the entropy-coding bit.
func TestToolsBitsRoundTrip(t *testing.T) {
	for b := uint8(0); b < 16; b++ {
		want := b | toolsEntropy
		if got := toolsFromBits(want).bits(); got != want {
			t.Fatalf("tools bits %05b -> %05b", want, got)
		}
	}
}

// TestProfileIDs pins each profile's header byte — 0 = H.264, 1 = H.265,
// 2 = AV1, older than the Profile values — and that it maps back; no other
// byte names a profile.
func TestProfileIDs(t *testing.T) {
	for p, wire := range map[Profile]uint8{H264: 0, HEVC: 1, AV1: 2} {
		if got := p.params().wire; got != wire {
			t.Errorf("%s has wire id %d, want %d", p, got, wire)
		}
		if back, ok := profileOfWire(wire); !ok || back != p {
			t.Errorf("wire id %d maps to %s, %v; want %s", wire, back, ok, p)
		}
	}
	for id := 3; id < 256; id++ {
		if p, ok := profileOfWire(uint8(id)); ok {
			t.Errorf("wire id %d maps to %s", id, p)
		}
	}
}

func TestEstimateLevelBitsMonotone(t *testing.T) {
	// More/larger coefficients must never be estimated cheaper than an
	// empty block.
	empty := make([]int32, 64)
	one := make([]int32, 64)
	one[0] = 1
	big := make([]int32, 64)
	for i := range big {
		big[i] = int32(i%7) - 3
	}
	e0 := estimateLevelBits(empty, 8, true)
	e1 := estimateLevelBits(one, 8, true)
	e2 := estimateLevelBits(big, 8, true)
	if !(e0 < e1 && e1 < e2) {
		t.Fatalf("estimates not monotone: %d %d %d", e0, e1, e2)
	}
}

func TestZigzagMapping(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 2, -2, 1000, -1000} {
		if got := unzigzag(zigzagU(v)); got != v {
			t.Fatalf("zigzag roundtrip %d -> %d", v, got)
		}
	}
}
