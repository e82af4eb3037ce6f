package main

import "strings"

// endToEnd is a metric a user of the system sees. Bound is the share of the
// parent's median by which it may worsen before a change is a regression.
//
// The contract wants every end-to-end metric from every workload, never zero
// and steady, so the metrics are named for the role an operation plays and
// each workload says which of its operations fills the role; issueNames maps
// the cells back onto the ISSUE's workload-specific names. Operations per
// second is not among them: it did not hold a 25 % bound in the A/A sets
// (README.md), so by the ISSUE's rule it is client.ops_per_s, a per-layer
// metric.
//
//	workload        raw_mbps (bulk op)        op_p50_ms (latency op)
//	weights_encode  encode                    encode
//	weights_fetch   bulk restore              LRU-miss Model.Layer read
//	serve_codec     POST /v1/encode           POST /v1/decode
//	kv_stream       PUT                       GET
//	grad_ring       allreduce step            allreduce step
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The timing bounds are the contract's maximum, 25 %, where the ISSUE's
// default was 10 %: README.md's A/A sets show the spreads they sit above.
// setup_s has the largest, as the contract asks. bits_per_value and rel_mse
// are measured on the anchor inputs and repeat exactly, so their bound only
// has to exceed zero.
var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"raw_mbps", "MB/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"bits_per_value", "bits", "lower", 0.01},
	{"rel_mse", "ratio", "lower", 0.01},
}

// issueName is one of the ISSUE's workload-specific end-to-end names, which
// later issues cite: the cell that holds its value (clientOpsPerS for a rate)
// or, for a latency whose op sits in a raw_mbps cell, the op kind whose median
// time it is.
type issueName struct{ name, unit, cell, kind string }

const clientOpsPerS = "client.ops_per_s"

// issueNames lists them per workload; the report prints each beside the five
// metrics and the result file records them (bits_per_value, rel_mse and
// setup_s keep their names).
var issueNames = map[string][]issueName{
	"weights_encode": {{"encode_mbps", "MB/s", "raw_mbps", ""}},
	"weights_fetch":  {{"decode_mbps", "MB/s", "raw_mbps", ""}, {"layer_p50_ms", "ms", "op_p50_ms", ""}},
	"serve_codec":    {{"req_per_s", "1/s", clientOpsPerS, ""}, {"encode_p50_ms", "ms", "", "encode"}, {"decode_p50_ms", "ms", "op_p50_ms", ""}},
	"kv_stream":      {{"req_per_s", "1/s", clientOpsPerS, ""}, {"put_p50_ms", "ms", "", "put"}, {"get_p50_ms", "ms", "op_p50_ms", ""}},
	"grad_ring":      {{"steps_per_s", "1/s", clientOpsPerS, ""}},
}

// issueValues are a result's end-to-end figures under the ISSUE's names.
func issueValues(r *result) map[string]metricValue {
	out := map[string]metricValue{}
	for _, in := range issueNames[r.name] {
		v := r.e2e[in.cell]
		switch {
		case in.cell == clientOpsPerS:
			v = r.opsPerS
		case in.kind != "":
			v = r.phases["timed"].p50(in.kind)
		}
		out[in.name] = metricValue{v, in.unit}
	}
	return out
}

// perLayer is a metric of a single layer; it has no bound.
type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerGroup expands prefix + each suffix into metrics sharing a unit and a
// direction.
func layerGroup(unit, better, prefix string, suffixes ...string) []perLayer {
	out := make([]perLayer, len(suffixes))
	for i, s := range suffixes {
		out[i] = perLayer{prefix + s, unit, better}
	}
	return out
}

var perLayerMetrics = concat(
	layerGroup("ns/px", "lower", "dct.", "forward_ns_per_px.n4", "forward_ns_per_px.n8", "forward_ns_per_px.n16", "forward_ns_per_px.n32",
		"inverse_ns_per_px.n4", "inverse_ns_per_px.n8", "inverse_ns_per_px.n16", "inverse_ns_per_px.n32",
		"quantize_ns_per_px", "dequantize_ns_per_px", "satd_ns_per_px.n8", "satd_ns_per_px.n32"),
	layerGroup("ns/px", "lower", "intra.predict_ns_per_px.", "planar", "dc", "angular"),
	layerGroup("ns", "lower", "intra.", "smooth_refs_ns"),
	layerGroup("ns/bin", "lower", "cabac.", "encode_ns_per_bin", "decode_ns_per_bin"),
	layerGroup("ns/byte", "lower", "rans.", "encode_ns_per_byte", "decode_ns_per_byte"),
	layerGroup("ns/value", "lower", "quant.", "to_uint8_ns_per_value", "from_uint8_ns_per_value"),
	layerGroup("ns/px", "lower", "frame.", "from_matrix_ns_per_px", "to_matrix_ns_per_px"),

	layerGroup("ns/px", "lower", "codec.", "encode_ns_per_px", "encode_ns_per_px.rans", "decode_ns_per_px", "decode_ns_per_px.rans",
		"decode_region_ns_per_px", "append_ns_per_px"),
	layerGroup("count", "lower", "codec.", "chunks_per_encode"),
	layerGroup("ratio", "higher", "codec.", "parallel_speedup.encode", "parallel_speedup.decode", "pool_util.encode", "pool_util.decode"),
	layerGroup("ratio", "lower", "codec.stage_share.", "intra_search", "transform_quant", "partition", "entropy", "container"),
	layerGroup("ratio", "lower", "codec.bits_share.", "residual", "mode", "partition", "container"),

	layerGroup("ms", "lower", "core.", "encode_ms_p50", "encode_self_ms_p50", "decode_ms_p50", "decode_self_ms_p50",
		"marshal_ms_p50", "unmarshal_ms_p50", "decode_layer_ms_p50"),
	layerGroup("count", "lower", "core.", "encode_allocs_per_op", "decode_allocs_per_op"),
	layerGroup("KB", "lower", "core.", "encode_alloc_kb_per_op", "decode_alloc_kb_per_op"),

	layerGroup("MB/s", "higher", "store.", "pack_mbps"),
	layerGroup("ms", "lower", "store.", "fetch_ms_p50", "layer_hit_ms_p50", "layer_miss_ms_p50"),
	layerGroup("ratio", "higher", "store.", "lru_hit_ratio"),
	layerGroup("count", "lower", "store.", "lru_evictions"),
	layerGroup("bits", "lower", "store.", "packed_bits_per_value"),

	layerGroup("ms", "lower", "kv.", "append_ms_p50", "read_ms_p50"),
	layerGroup("count", "lower", "kv.", "chunks_encoded"),
	layerGroup("count", "higher", "kv.", "chunks_aliased"),
	layerGroup("ratio", "higher", "kv.", "alias_ratio"),
	layerGroup("bytes", "lower", "kv.", "resident_bytes"),
	layerGroup("count", "lower", "kv.", "budget_rejects", "reads_partial"),

	layerGroup("ms", "lower", "serve.", "encode_ms_p50", "decode_ms_p50", "kv_put_ms_p50", "kv_get_ms_p50",
		"encode_self_ms_p50", "decode_self_ms_p50", "queue_wait_ms_p50"),
	layerGroup("count", "lower", "serve.", "rejected_429", "resp_5xx"),

	layerGroup("ms", "lower", "proxy.", "encode_self_ms_p50", "decode_self_ms_p50", "kv_self_ms_p50"),
	layerGroup("count", "lower", "proxy.", "retries", "hedges", "shed", "upstream_errors"),
	layerGroup("count", "higher", "proxy.", "hedge_wins"),

	layerGroup("ms", "lower", "allreduce.", "encode_ms_per_step", "decode_ms_per_step"),
	layerGroup("ratio", "lower", "allreduce.", "wait_share"),
	layerGroup("count", "lower", "allreduce.", "frames_per_step"),
	layerGroup("bytes", "lower", "allreduce.", "payload_bytes_per_step"),
	layerGroup("ratio", "lower", "allreduce.", "residual_l2"),
	layerGroup("1/s", "higher", "allreduce.", "raw_steps_per_s"),

	layerGroup("ms", "lower", "client.", "encode_tail_ms", "decode_tail_ms", "put_tail_ms", "get_tail_ms", "layer_tail_ms", "step_tail_ms"),
	layerGroup("1/s", "higher", "client.", "ops_per_s"),
	layerGroup("ratio", "lower", "client.", "unaccounted_frac", "trace_overhead_frac"),
)

func concat(groups ...[]perLayer) []perLayer {
	var out []perLayer
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// registryBacked are the per-layer metrics read through the program's own
// obs registry. One of them may be missing from a report when a refactor has
// removed its name; every other metric must be present.
func registryBacked(name string) bool {
	for _, p := range []string{"codec.stage_share.", "codec.bits_share.", "codec.pool_util.",
		"serve.rejected_429", "serve.resp_5xx", "serve.queue_wait_ms_p50",
		"proxy.retries", "proxy.hedges", "proxy.hedge_wins", "proxy.shed", "proxy.upstream_errors"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
