// Incremental container growth for streaming sessions (DESIGN.md §16).
//
// The one-shot encoders are pure functions: planes in, container out. A
// streaming KV cache needs the two halves apart — chunks encoded one at a
// time as token rows arrive and held by their owner, then framed into a
// container only when a read wants some of them. Appender is those two
// halves and holds nothing but coding parameters:
//
//   - Append encodes its planes as one chunk per plane, bypassing chunkSpans'
//     pixel-count batching, and returns the payloads. A chunk's bytes are
//     therefore a pure function of its plane and the coding parameters, never
//     of how many planes happened to arrive in one call — which is what lets
//     the kv tier key a chunk by the rows it encodes. codec.encode.chunks
//     advances by exactly the number of planes in the call.
//   - Frame(w, h, payloads) frames payloads of w×h planes into a standalone
//     hardened v3 container (writeContainer): no entropy work, no plane
//     data. The container decodes byte-identically to the same crop of a
//     one-shot encode (append_test.go proves it at every worker count).
//
// Chunks are CABAC only: a rANS payload decodes against a probability table
// built from every chunk of its container, which a growing container cannot
// know, so Append and Frame refuse a rANS tool set.
//
// An Appender is never written after NewAppender, so it is safe for
// concurrent use.
package codec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Appender encodes single-plane chunks and frames v3 containers over them.
type Appender struct {
	qp      int
	prof    Profile
	tools   Tools
	workers int
	m       *encMetrics
}

// NewAppender creates an appender with the given coding parameters.
// Parameter validation happens on the first Append (it needs planes);
// workers <= 0 selects GOMAXPROCS as everywhere in the engine.
func NewAppender(qp int, prof Profile, tools Tools, workers int, reg *obs.Registry) *Appender {
	return &Appender{qp: qp, prof: prof, tools: tools, workers: workers, m: newEncMetrics(reg)}
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

// Frame writes a standalone v3 container whose planes, numbered from zero,
// are the given payloads, each one w×h plane that Append encoded with these
// coding parameters. The payloads are copied; nothing is re-encoded.
func (a *Appender) Frame(w, h int, payloads [][]byte) ([]byte, error) {
	if a.tools.Backend != BackendCABAC {
		return nil, errAppendRANS
	}
	if len(payloads) == 0 || w <= 0 || h <= 0 || w > a.prof.MaxFrameDim() || h > a.prof.MaxFrameDim() {
		return nil, fmt.Errorf("codec: cannot frame %d chunks of %dx%d planes", len(payloads), w, h)
	}
	dims := make([][2]int, len(payloads))
	chunks := make([]chunkRec, len(payloads))
	for i, p := range payloads {
		dims[i] = [2]int{w, h}
		chunks[i] = chunkRec{payload: p, planes: 1}
	}
	out, _ := writeContainer(versionChecksummed, dims, a.qp, a.prof, a.tools, nil, chunks)
	return out, nil
}
