// Chunk-at-a-time coding for streaming sessions (DESIGN.md §16).
//
// A streaming KV cache encodes chunks one at a time as token rows arrive,
// holds them itself, and decodes the few a read wants. The chunks never leave
// the process, so no container frames them. Appender is those two halves and
// holds nothing but coding parameters:
//
//   - Append encodes each plane as one chunk, bypassing chunkSpans' batching,
//     so a chunk's bytes are a pure function of its plane and the coding
//     parameters, never of how many planes arrived in one call — which lets
//     the kv tier key a chunk by the rows it encodes. codec.encode.chunks
//     advances by exactly the number of planes in the call.
//   - Decode runs payloads through the chunk pool Decode uses, minus the
//     container parse; its planes equal the same crop of a one-shot encode's decode
//     (append_test.go, at every worker count).
//
// Chunks are CABAC only: a rANS payload decodes against a probability table
// built from every chunk of its container, so Append and Decode refuse rANS.
//
// An Appender is never written after NewAppender: safe for concurrent use.
package codec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Appender encodes single-plane chunks and decodes them.
type Appender struct {
	qp      int
	prof    Profile
	tools   Tools
	workers int
	m       *encMetrics
	dm      *decMetrics
}

// NewAppender creates an appender with the given coding parameters.
// Parameter validation happens on the first Append (it needs planes);
// workers <= 0 selects GOMAXPROCS as everywhere in the engine.
func NewAppender(qp int, prof Profile, tools Tools, workers int, reg *obs.Registry) *Appender {
	return &Appender{qp: qp, prof: prof, tools: tools, workers: workers, m: newEncMetrics(reg), dm: newDecMetrics(reg)}
}

// errAppendRANS refuses a rANS tool set (see the package doc).
var errAppendRANS = errors.New("codec: appended chunks are CABAC only")

// Append encodes planes as one chunk each and returns the per-plane payload
// bytes and the encode Stats of just this call. The payloads are sealed: the
// caller owns them and must not modify them.
//
// regions is ignored. It stays only because benchmark/surface.go binds
// Append with this signature; the next benchmark change drops it.
func (a *Appender) Append(ctx context.Context, planes []*frame.Plane, _ []PlaneRegion) ([][]byte, Stats, error) {
	if a.tools.Backend != BackendCABAC {
		return nil, Stats{}, errAppendRANS
	}
	if err := validateEncode(planes, EncodeConfig{QP: a.qp, Profile: a.prof, Tools: a.tools}); err != nil {
		return nil, Stats{}, err
	}
	spans := make([][2]int, len(planes))
	for i := range planes {
		spans[i] = [2]int{i, i + 1}
	}
	chunks, _, recs, err := encodeChunks(ctx, planes, spans, a.qp, a.prof, a.tools, a.workers, a.m)
	if err != nil {
		return nil, Stats{}, err
	}
	payloads := make([][]byte, len(chunks))
	payloadLen := 0
	for i, c := range chunks {
		payloads[i] = c.payload
		payloadLen += len(c.payload)
	}
	st := computeStats(planes, recs, payloadLen*8)
	st.Chunks = len(spans)
	if a.m != nil {
		a.m.recordEncodeTotals(st, payloadLen, payloadLen, len(planes))
	}
	return payloads, st, nil
}

// Decode returns the planes of payloads that Append encoded, each one w×h
// plane, in order: a strict Decode of the container they would make, minus
// the container and its parse-stage metric.
func (a *Appender) Decode(ctx context.Context, w, h int, payloads [][]byte) ([]*frame.Plane, error) {
	if a.dm != nil {
		a.dm.calls.Inc()
	}
	if a.tools.Backend != BackendCABAC {
		return nil, errAppendRANS
	}
	if d := a.prof.MaxFrameDim(); len(payloads) == 0 || w <= 0 || h <= 0 || w > d || h > d ||
		int64(w)*int64(h)*int64(len(payloads)) > maxDecodePixels {
		return nil, fmt.Errorf("codec: cannot decode %d chunks of %dx%d planes", len(payloads), w, h)
	}
	pc := &parsedContainer{prof: a.prof, tools: a.tools, qp: a.qp, dims: make([][2]int, len(payloads)), chunks: make([]chunkMeta, len(payloads))}
	for i, p := range payloads {
		pc.dims[i] = [2]int{w, h}
		pc.chunks[i] = chunkMeta{index: i, payload: p, dims: pc.dims[i : i+1], planeBase: i}
	}
	d, err := decodeParsed(ctx, pc, DecodeConfig{Workers: a.workers}, a.dm)
	if err != nil {
		a.dm.countError(err)
		return nil, err
	}
	if a.dm != nil {
		a.dm.planes.Add(int64(len(d.Planes)))
	}
	return d.Planes, nil
}
