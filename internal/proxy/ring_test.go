package proxy

import (
	"fmt"
	"testing"
)

// TestRingStability pins the property the sharding story rests on: removing
// one of N backends remaps only the keys that backend owned. Every key not
// owned by the removed backend must keep its owner, and the remapped
// fraction must be near 1/N.
func TestRingStability(t *testing.T) {
	names := []string{"10.0.0.1:8265", "10.0.0.2:8265", "10.0.0.3:8265"}
	full := newRing(names, 128)

	const keys = 10000
	ownerBefore := make([]string, keys)
	for i := 0; i < keys; i++ {
		ownerBefore[i] = names[full.sequence(fmt.Sprintf("key-%d", i))[0]]
	}

	for drop := range names {
		survivors := make([]string, 0, len(names)-1)
		for i, n := range names {
			if i != drop {
				survivors = append(survivors, n)
			}
		}
		small := newRing(survivors, 128)

		moved := 0
		for i := 0; i < keys; i++ {
			after := survivors[small.sequence(fmt.Sprintf("key-%d", i))[0]]
			if ownerBefore[i] == names[drop] {
				moved++
				continue // this key had to move; any survivor is legal
			}
			if after != ownerBefore[i] {
				t.Fatalf("key-%d not owned by removed backend %s moved %s → %s",
					i, names[drop], ownerBefore[i], after)
			}
		}
		// The removed backend owned ~1/3 of the keyspace; allow generous
		// slack for hash unevenness at 128 vnodes.
		if frac := float64(moved) / keys; frac < 0.15 || frac > 0.55 {
			t.Errorf("dropping %s remapped %.1f%% of keys, want ~33%%", names[drop], frac*100)
		}
	}
}

// TestRingSequence pins the failover walk: sequence starts at the owner,
// visits every distinct backend exactly once, and sequence[1] is exactly
// where the key lands if the owner is removed — the consistency between
// transient skip-ahead and permanent removal.
func TestRingSequence(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1", "d:1"}
	r := newRing(names, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("seq-key-%d", i)
		seq := r.sequence(key)
		if len(seq) != len(names) {
			t.Fatalf("sequence(%q) has %d entries, want %d", key, len(seq), len(names))
		}
		seen := map[int]bool{}
		for _, idx := range seq {
			if seen[idx] {
				t.Fatalf("sequence(%q) visits backend %d twice: %v", key, idx, seq)
			}
			seen[idx] = true
		}

		// Remove the owner; the new owner must be sequence[1].
		survivors := make([]string, 0, len(names)-1)
		for j, n := range names {
			if j != seq[0] {
				survivors = append(survivors, n)
			}
		}
		after := survivors[newRing(survivors, 64).sequence(key)[0]]
		if after != names[seq[1]] {
			t.Fatalf("key %q: owner removed lands on %s, sequence[1] = %s", key, after, names[seq[1]])
		}
	}
}

// TestRingDeterministic: same inputs, same ring — construction order of
// identical name sets cannot differ across processes.
func TestRingDeterministic(t *testing.T) {
	names := []string{"x:1", "y:1", "z:1"}
	a, b := newRing(names, 128), newRing(names, 128)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("det-%d", i)
		if a.sequence(k)[0] != b.sequence(k)[0] {
			t.Fatalf("owner(%q) differs between identical rings", k)
		}
	}
}
