package llm

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestPackedInferenceExactUnderBudget pins the low-memory inference
// contract: a model loaded from the store through a tight decoded-layer
// budget carries weights — and therefore task accuracy — exactly equal to
// the directly-decoded packed model.
func TestPackedInferenceExactUnderBudget(t *testing.T) {
	corpus, m := setup(t)
	snap := SnapshotWeights(m)
	defer RestoreWeights(m, snap)

	reg := obs.NewRegistry()
	s, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	opts := core.DefaultOptions()
	opts.MaxFrameW, opts.MaxFrameH = 64, 64
	man, err := PackModel(s, "test-model", m, opts, 24)
	if err != nil {
		t.Fatalf("PackModel: %v", err)
	}

	// Shape grouping: 2 blocks × (wq wk wv wo up down) + head = 13 matrices,
	// and every parameter name appears exactly once.
	layers, names := 0, map[string]bool{}
	for _, tm := range man.Tensors {
		layers += tm.Meta.Layers
		if len(tm.Params) != tm.Meta.Layers {
			t.Fatalf("tensor %s: %d params for %d layers", tm.Name, len(tm.Params), tm.Meta.Layers)
		}
		for _, p := range tm.Params {
			if names[p] {
				t.Fatalf("param %s packed twice", p)
			}
			names[p] = true
		}
		if tm.Trailer.Hash != "" {
			t.Fatalf("tensor %s packed with a trailer", tm.Name)
		}
	}
	if layers != 13 {
		t.Fatalf("packed %d layers, want 13", layers)
	}

	// Reference: fetch and fully decode every stack, no cache involved.
	fetched, err := s.Fetch("test-model")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	wantW := map[string][]float32{}
	for _, tm := range man.Tensors {
		dec, err := opts.DecodeStackCtx(context.Background(), fetched[tm.Name])
		if err != nil {
			t.Fatalf("DecodeStack %s: %v", tm.Name, err)
		}
		for l, p := range tm.Params {
			wantW[p] = dec[l].Data
		}
	}
	RestoreWeights(m, snap)
	for _, p := range CompressibleParams(m) {
		copy(p.W.V, wantW[p.Name])
	}
	tasks := GenerateTasks(corpus, 2, 30)
	_, wantAcc := EvalTasks(m, tasks)

	// Budget two decoded layers of the largest shape (32×64): far below the
	// 13-matrix working set, so the LRU must churn.
	budget := int64(2 * 32 * 64 * 4)
	mod, err := s.OpenModel("test-model", opts, budget)
	if err != nil {
		t.Fatalf("OpenModel: %v", err)
	}
	RestoreWeights(m, snap)
	if err := ApplyPacked(m, mod); err != nil {
		t.Fatalf("ApplyPacked: %v", err)
	}
	for _, p := range CompressibleParams(m) {
		want := wantW[p.Name]
		for i := range want {
			if p.W.V[i] != want[i] {
				t.Fatalf("param %s value %d: LRU path %v != direct decode %v",
					p.Name, i, p.W.V[i], want[i])
			}
		}
	}
	_, gotAcc := EvalTasks(m, tasks)
	if gotAcc != wantAcc {
		t.Fatalf("accuracy through LRU %v != direct %v", gotAcc, wantAcc)
	}

	st := mod.Stats()
	if st.MaxResidentBytes > budget {
		t.Fatalf("decoded bytes peaked at %d, budget %d", st.MaxResidentBytes, budget)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("budget did not exercise the LRU: %+v", st)
	}
	if st.CompressedBytes != man.PackedBytes() {
		t.Fatalf("CompressedBytes %d != manifest PackedBytes %d", st.CompressedBytes, man.PackedBytes())
	}
	if reg.Snapshot().Counters["store.lru.evictions"] == 0 {
		t.Fatal("store.lru.evictions not recorded")
	}

	// Second apply re-reads every parameter; results must be stable.
	if err := ApplyPacked(m, mod); err != nil {
		t.Fatalf("ApplyPacked again: %v", err)
	}
	_, acc2 := EvalTasks(m, tasks)
	if acc2 != wantAcc {
		t.Fatalf("second apply drifted: %v != %v", acc2, wantAcc)
	}
}
