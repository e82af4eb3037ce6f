package nvcodec

import "testing"

func TestSupportMatrixMatchesTable2(t *testing.T) {
	gens := Generations()
	if len(gens) != 3 {
		t.Fatalf("want 3 generations, got %d", len(gens))
	}
	for _, g := range gens {
		if g.Codecs["H.264"].MaxDim != 4096 {
			t.Errorf("%s: H.264 should be 4K", g.Name)
		}
		if g.Codecs["H.265"].MaxDim != 8192 || !g.Codecs["H.265"].Encode {
			t.Errorf("%s: H.265 should be 8K enc/dec", g.Name)
		}
		if g.Codecs["VP9"].Encode {
			t.Errorf("%s: VP9 must be decode-only", g.Name)
		}
		if _, hasAV1 := g.Codecs["AV1"]; hasAV1 != (g.Name == "Ada Lovelace") {
			t.Errorf("%s: AV1 support wrong", g.Name)
		}
	}
}
