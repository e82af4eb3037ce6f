// Packed-model inference: checkpoints in the content-addressed store.
//
// PackModel turns a transformer's compressible weights into codec stacks
// inside a store (one stack per matrix shape, so layers with the same
// geometry share chunk boundaries and dedup across fine-tunes), and
// ApplyPacked installs them back through a store.Model — the LRU of decoded
// layers that bounds resident bytes during low-memory inference. Because the
// codec is deterministic and the store reassembles containers byte-exactly,
// a model loaded through any budget reproduces the directly-decoded weights
// (and therefore task accuracy) exactly; packed_test.go pins this.
package llm

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/store"
)

// PackModel compresses every compressible weight of m at qp and packs the
// result into s under the model name. Matrices are grouped by shape into
// stacks (layer order = parameter order within a group), encoded with opts,
// and keyed by parameter name in the manifest. A fetched model serves single
// layers through core.DecodeLayerCtx, which decodes only the chunks covering
// the layer. Returns the written manifest.
func PackModel(s *store.Store, model string, m *nn.Transformer, opts core.Options, qp int) (*store.Manifest, error) {
	type group struct {
		params []string
		stack  []*core.Tensor
	}
	groups := map[string]*group{}
	var order []string
	for _, p := range CompressibleParams(m) {
		key := fmt.Sprintf("w%dx%d", p.W.R, p.W.C)
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.params = append(g.params, p.Name)
		g.stack = append(g.stack, core.FromSlice(p.W.R, p.W.C, slices.Clone(p.W.V)))
	}
	sort.Strings(order) // deterministic manifest regardless of param order
	entries := make([]store.PackEntry, 0, len(order))
	for _, key := range order {
		g := groups[key]
		e, err := opts.EncodeStackCtx(context.Background(), g.stack, qp)
		if err != nil {
			return nil, fmt.Errorf("llm: pack %s: %w", key, err)
		}
		entries = append(entries, store.PackEntry{Name: key, Params: g.params, Enc: e})
	}
	return s.Pack(model, entries)
}

// ApplyPacked installs a packed model's weights into m through mod's decoded-
// layer LRU: each compressible parameter is looked up by name and decoded on
// demand, so peak decoded bytes stay within the budget mod was opened with.
// Parameters the manifest does not map are an error — a packed model is all
// or nothing.
func ApplyPacked(m *nn.Transformer, mod *store.Model) error {
	for _, p := range CompressibleParams(m) {
		t, err := mod.Param(p.Name)
		if err != nil {
			return fmt.Errorf("llm: apply %s: %w", p.Name, err)
		}
		if t.Rows != p.W.R || t.Cols != p.W.C {
			return fmt.Errorf("llm: apply %s: packed shape %dx%d, model wants %dx%d",
				p.Name, t.Rows, t.Cols, p.W.R, p.W.C)
		}
		copy(p.W.V, t.Data)
	}
	return nil
}
