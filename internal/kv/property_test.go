package kv

import (
	"math/rand"
	"testing"
)

// TestKVPropertyAliasedTwins: sessions sharing a prompt prefix but appended
// under different random schedules read back byte-identical to each other
// AND to the same sessions each alone in a table of its own, where nothing can
// alias — aliasing is purely an optimization, invisible in every returned
// value.
func TestKVPropertyAliasedTwins(t *testing.T) {
	const dim, f, qp, prefixGroups = 16, 8, 12, 3
	rng := rand.New(rand.NewSource(31))
	prefix := rowsFor(111, 0, prefixGroups*f, dim)
	suffixA := rowsFor(222, prefixGroups*f, f+3, dim)
	suffixB := rowsFor(333, prefixGroups*f, 2*f+1, dim)

	aliased := New(Config{FlushRows: f, QP: qp})
	plain := map[string]*Table{}
	for name, rows := range map[string][]float32{
		"a": append(append([]float32(nil), prefix...), suffixA...),
		"b": append(append([]float32(nil), prefix...), suffixB...),
	} {
		plain[name] = New(Config{FlushRows: f, QP: qp})
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
			t.Fatalf("session %s: %d vs %d values", name, len(x.Vals), len(y.Vals))
		}
		for i := range x.Vals {
			if x.Vals[i] != y.Vals[i] {
				t.Fatalf("session %s value %d: aliased %g, plain %g", name, i, x.Vals[i], y.Vals[i])
			}
		}
	}
	// The shared prefix reads identically between the twins themselves.
	xa := mustRead(t, aliased, "a", 0, prefixGroups*f)
	xb := mustRead(t, aliased, "b", 0, prefixGroups*f)
	for i := range xa.Vals {
		if xa.Vals[i] != xb.Vals[i] {
			t.Fatalf("twin prefixes diverge at value %d", i)
		}
	}
}
