// Package nvcodec records what the paper says of the GPU hardware video
// engines (NVENC/NVDEC) that LLM.265 runs on: their codec support matrix by
// GPU generation (Table 2) and the measured tensor throughput of one engine
// (§6.1). The compression itself runs through the pure-Go codec, which
// substitutes for the engines functionally, not in speed (DESIGN.md §2).
package nvcodec

// Measured tensor throughput per engine, MB/s (§6.1).
const (
	EncodeMBps = 1100
	DecodeMBps = 1300
)

// Support describes one codec's capability on a GPU generation.
type Support struct {
	MaxDim int  // maximum frame edge (4K = 4096, 8K = 8192)
	Encode bool // hardware encode available
	Decode bool
}

// Generation is a GPU generation's video-engine capability set (Table 2).
type Generation struct {
	Name   string
	Codecs map[string]Support
}

// Generations reproduces the paper's Table 2.
func Generations() []Generation {
	base := func(name string, av1 bool) Generation {
		g := Generation{
			Name: name,
			Codecs: map[string]Support{
				"H.264": {MaxDim: 4096, Encode: true, Decode: true},
				"H.265": {MaxDim: 8192, Encode: true, Decode: true},
				"VP9":   {MaxDim: 8192, Encode: false, Decode: true},
			},
		}
		if av1 {
			g.Codecs["AV1"] = Support{MaxDim: 8192, Encode: true, Decode: true}
		}
		return g
	}
	return []Generation{
		base("Ada Lovelace", true),
		base("Ampere", false),
		base("Volta", false),
	}
}
