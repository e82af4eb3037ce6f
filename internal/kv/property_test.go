package kv

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
)

// TestKVPropertyScheduleInvariance is the satellite property: for random
// append schedules (batch sizes 1..K tokens), every ranged read returns
// exactly the bytes the one-shot pipeline produces for the same range —
// across both entropy backends and worker counts {1, 2, 4, 8}. The session
// never sees the one-shot encoder; agreement means the incremental flush,
// the indexed snapshot decode and the tail splice are all invisible.
func TestKVPropertyScheduleInvariance(t *testing.T) {
	const dim, f, qp, maxBatch = 16, 8, 12, 9
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		for _, workers := range []int{1, 2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(1000*int(backend) + workers)))
			rows := 24 + rng.Intn(40) // 3..7 full groups plus a tail
			vals := rowsFor(int64(workers), 0, rows, dim)
			want := reference(t, vals, dim, f, qp, backend, workers)

			tab := New(Config{FlushRows: f, QP: qp, Backend: backend, Workers: workers})
			at := 0
			for at < rows {
				k := 1 + rng.Intn(maxBatch)
				if at+k > rows {
					k = rows - at
				}
				mustAppend(t, tab, "s", dim, at, vals[at*dim:(at+k)*dim])
				at += k
			}

			for i := 0; i < 16; i++ {
				t0 := rng.Intn(rows)
				t1 := t0 + 1 + rng.Intn(rows-t0)
				got := mustRead(t, tab, "s", t0, t1)
				if got.From != t0 || got.To != t1 {
					t.Fatalf("backend %v workers %d: range [%d,%d) served [%d,%d)",
						backend, workers, t0, t1, got.From, got.To)
				}
				for j, v := range got.Vals {
					if w := want[t0*dim+j]; v != w {
						t.Fatalf("backend %v workers %d range [%d,%d): value %d = %g, one-shot %g",
							backend, workers, t0, t1, j, v, w)
					}
				}
			}
		}
	}
}

// TestKVPropertyAliasedTwins: sessions sharing a prompt prefix but appended
// under different random schedules read back byte-identical to each other
// AND to the same sessions each alone in a table of its own, where nothing can
// alias — aliasing is purely an optimization, invisible in every returned
// value.
func TestKVPropertyAliasedTwins(t *testing.T) {
	const dim, f, qp, prefixGroups = 16, 8, 12, 3
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		rng := rand.New(rand.NewSource(int64(31 + int(backend))))
		prefix := rowsFor(111, 0, prefixGroups*f, dim)
		suffixA := rowsFor(222, prefixGroups*f, f+3, dim)
		suffixB := rowsFor(333, prefixGroups*f, 2*f+1, dim)

		aliased := New(Config{FlushRows: f, QP: qp, Backend: backend})
		plain := map[string]*Table{}
		for name, rows := range map[string][]float32{
			"a": append(append([]float32(nil), prefix...), suffixA...),
			"b": append(append([]float32(nil), prefix...), suffixB...),
		} {
			plain[name] = New(Config{FlushRows: f, QP: qp, Backend: backend})
			for _, tab := range []*Table{aliased, plain[name]} {
				at, total := 0, len(rows)/dim
				for at < total {
					k := 1 + rng.Intn(6)
					if at+k > total {
						k = total - at
					}
					mustAppend(t, tab, name, dim, at, rows[at*dim:(at+k)*dim])
					at += k
				}
			}
		}

		for _, name := range []string{"a", "b"} {
			x := mustRead(t, aliased, name, 0, -1)
			y := mustRead(t, plain[name], name, 0, -1)
			if len(x.Vals) != len(y.Vals) {
				t.Fatalf("backend %v session %s: %d vs %d values", backend, name, len(x.Vals), len(y.Vals))
			}
			for i := range x.Vals {
				if x.Vals[i] != y.Vals[i] {
					t.Fatalf("backend %v session %s value %d: aliased %g, plain %g",
						backend, name, i, x.Vals[i], y.Vals[i])
				}
			}
		}
		// The shared prefix reads identically between the twins themselves.
		xa := mustRead(t, aliased, "a", 0, prefixGroups*f)
		xb := mustRead(t, aliased, "b", 0, prefixGroups*f)
		for i := range xa.Vals {
			if xa.Vals[i] != xb.Vals[i] {
				t.Fatalf("backend %v: twin prefixes diverge at value %d", backend, i)
			}
		}
	}
}
