package experiments

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
)

// The suite below exercises the fast experiments end to end and checks the
// qualitative claims each artifact exists to demonstrate. The heavyweight
// experiments (fig5, fig8–fig11, …) are covered by the root benchmarks and
// the cmd/experiments CLI; their building blocks are tested in their own
// packages.

func quickCtx() *Ctx { return NewCtx(true) }

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func cellF(tb testing.TB, t *Table, row, col int) float64 {
	tb.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell(t, row, col)), 64)
	if err != nil {
		tb.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, cell(t, row, col), err)
	}
	return v
}

func TestAllRunnersRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if r.ID == "" || r.Desc == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"fig2", "fig3", "fig4", "fig5", "table1", "fig6",
		"table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table3",
		"fig14", "fig15", "fig16", "throughput"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "note1")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "2", "note: note1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFig3DeOutliering(t *testing.T) {
	tab := Fig3(quickCtx())
	kurtIn := cellF(t, tab, 0, 1)
	kurtOut := cellF(t, tab, 1, 1)
	if kurtIn < 10 {
		t.Fatalf("input kurtosis %.1f too small for a meaningful demo", kurtIn)
	}
	if kurtOut > kurtIn/10 {
		t.Fatalf("DCT failed to de-outlier: %.2f -> %.2f", kurtIn, kurtOut)
	}
}

func TestFig2StageLadder(t *testing.T) {
	tab := Fig2(quickCtx())
	if len(tab.Rows) != 6 {
		t.Fatalf("want 6 stages, got %d", len(tab.Rows))
	}
	bits := make([]float64, 6)
	for i := range bits {
		bits[i] = cellF(t, tab, i, 1)
	}
	if bits[0] != 8 {
		t.Fatalf("stage 1 must be 8 bits, got %.2f", bits[0])
	}
	// Stages 2..5 must be monotonically non-increasing and end well below 4.
	for i := 1; i < 5; i++ {
		if bits[i] > bits[i-1]+1e-9 {
			t.Fatalf("stage %d increased bits: %.3f -> %.3f", i+1, bits[i-1], bits[i])
		}
	}
	if bits[4] > 3.6 {
		t.Fatalf("full intra pipeline needs %.2f bits, want < 3.6 (paper: 2.6)", bits[4])
	}
	// Inter prediction must not help.
	if bits[5] < bits[4]-1e-9 {
		t.Fatalf("inter prediction reduced bits (%.3f -> %.3f); paper says it must not", bits[4], bits[5])
	}
}

func TestFig4IntraCapture(t *testing.T) {
	tab := Fig4(quickCtx())
	ratio := cellF(t, tab, 3, 1)
	if ratio >= 0.8 {
		t.Fatalf("intra prediction captured too little: residual/block = %.2f", ratio)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tab := Table2(quickCtx())
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 GPU generations")
	}
	// Ada has AV1, Ampere/Volta don't; VP9 is decode-only everywhere.
	if cell(tab, 0, 3) != "8K Enc/Dec" || cell(tab, 1, 3) != "-" || cell(tab, 2, 3) != "-" {
		t.Fatalf("AV1 column wrong: %q %q %q", cell(tab, 0, 3), cell(tab, 1, 3), cell(tab, 2, 3))
	}
	for r := 0; r < 3; r++ {
		if cell(tab, r, 4) != "8K Dec" {
			t.Fatalf("VP9 must be decode-only, got %q", cell(tab, r, 4))
		}
	}
}

func TestFig12Table3Static(t *testing.T) {
	f12 := Fig12(quickCtx())
	if len(f12.Rows) < 8 {
		t.Fatal("fig12 missing devices")
	}
	t3 := Table3(quickCtx())
	if len(t3.Rows) != 7 {
		t.Fatalf("table3 wants 7 components, got %d", len(t3.Rows))
	}
	// NCCL energy/bit is the paper's 5120.
	if got := cellF(t, t3, 0, 3); got != 5120 {
		t.Fatalf("NCCL energy %.1f", got)
	}
	found := false
	for _, n := range t3.Notes {
		if strings.Contains(n, "31.7x") {
			found = true
		}
	}
	if !found {
		t.Fatal("table3 missing the 31.7x derivation")
	}
}

func TestFig16SpeedupBand(t *testing.T) {
	tab := Fig16(quickCtx())
	if len(tab.Rows) == 0 {
		t.Fatal("fig16 empty")
	}
	for _, row := range tab.Rows {
		s := strings.TrimSuffix(row[4], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[4])
		}
		if v < 1.0 || v > cFig16MaxSpeedup {
			t.Fatalf("speedup %.2f outside sanity band", v)
		}
	}
	// Energy notes ("... compression energy win 1.04x") must grow with
	// model size.
	var wins []float64
	for _, n := range tab.Notes {
		idx := strings.LastIndex(n, "win ")
		if idx < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(n[idx+4:], "x"), 64)
		if err == nil {
			wins = append(wins, v)
		}
	}
	if len(wins) >= 2 && wins[len(wins)-1] <= wins[0] {
		t.Fatalf("energy win did not grow with scale: %v", wins)
	}
}

const cFig16MaxSpeedup = 4.6 // cannot exceed the compression ratio

func TestFig14GridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ctx := quickCtx()
	pts := fig14Grid(ctx)
	// 6 quantizers × 4 coders + codec sweep points.
	if len(pts) < 24+4 {
		t.Fatalf("grid too small: %d points", len(pts))
	}
	// Within a quantizer family, CABAC must not lose to Huffman by much
	// (arithmetic coding ≥ prefix coding up to adaptation overhead), and
	// LZ4 must be the worst coder (the paper's Fig. 15 premise).
	byQ := map[string]map[string]float64{}
	for _, p := range pts {
		if p.method == "three-in-one (LLM.265)" {
			continue
		}
		parts := strings.SplitN(p.method, "+", 2)
		if byQ[parts[0]] == nil {
			byQ[parts[0]] = map[string]float64{}
		}
		byQ[parts[0]][parts[1]] = p.bits
	}
	for q, coders := range byQ {
		if coders["LZ4"] <= coders["CABAC"] {
			t.Fatalf("%s: LZ4 (%.2f) beat CABAC (%.2f)?", q, coders["LZ4"], coders["CABAC"])
		}
	}
}

// TestPerLayerRoutesBudgets: Fig. 5's variable-bitrate factory gives block i's
// matrices budgets[i] and the head, which has no block index, the last one.
func TestPerLayerRoutesBudgets(t *testing.T) {
	w := nn.RandMat(rand.New(rand.NewSource(5)), 32, 48, 1)
	compressor := perLayer(core.DefaultOptions(), []float64{2, 5})
	bits := map[string]float64{}
	for _, name := range []string{"block0.attn.wq.w", "block1.attn.wq.w", "head.w"} {
		_, b, err := compressor(name)(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bits[name] = b
	}
	l0, l1 := bits["block0.attn.wq.w"], bits["block1.attn.wq.w"]
	if l0 > 2 || l1 > 5 || l1 <= l0 {
		t.Fatalf("budgets {2, 5} not routed: layer 0 at %.2f b/v, layer 1 at %.2f", l0, l1)
	}
	if bits["head.w"] != l1 {
		t.Fatalf("head at %.4f b/v, want the last budget's %.4f", bits["head.w"], l1)
	}
}
