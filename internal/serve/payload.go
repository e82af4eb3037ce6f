// Wire payload formats of the service. Two body encodings exist:
//
//   - Tensor bodies (encode request, core-container decode response): raw
//     float32 little-endian values, row-major, layers concatenated. The
//     geometry travels in query parameters (request) or X-Llm265-* response
//     headers, keeping the body a zero-framing memcpy of the caller's
//     tensor.
//   - Plane bodies (codec-container decode response): the GPLN format used
//     by the golden conformance corpus — "GPLN" | u32 count | count × (u32
//     w, u32 h, w*h pixel bytes), big-endian lengths. Serving the corpus
//     vectors through HTTP therefore byte-compares directly against the
//     checked-in .planes files.
package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"

	"repro/internal/frame"
)

// presizeCap is the most a declared Content-Length alone may reserve.
const presizeCap = 1 << 20

// ReadBody reads r to EOF like io.ReadAll, into a buffer sized up front from
// the declared length, so that a body of known size costs one allocation
// where io.ReadAll's doubling from 512 bytes costs nine at 131 KB. The
// declaration is a hint, not a promise: it reserves min(contentLength, limit,
// 1 MiB) — a lying header cannot reserve more, a longer body grows as it
// arrives — and an unknown length (negative) is io.ReadAll itself. Errors
// from r come back unwrapped, with the bytes read before them. The proxy
// shares it for its request and upstream-response hops.
func ReadBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength < 0 {
		return io.ReadAll(r)
	}
	// ReadFrom wants bytes.MinRead of room before each Read, the one that
	// finds EOF included.
	buf := bytes.NewBuffer(make([]byte, 0, min(contentLength, limit, presizeCap)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// float32sToBytes serializes vals as little-endian float32s.
func float32sToBytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// bytesToFloat32s parses a little-endian float32 body. The caller has
// already validated len(data)%4 == 0.
func bytesToFloat32s(data []byte) []float32 {
	vals := make([]float32, len(data)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return vals
}

// marshalPlanes serializes decoded planes in the GPLN golden format. Planes
// lost to a partial decode are encoded as 0×0 entries (zero w, zero h, no
// pixels) so the container-order indexing survives the loss.
func marshalPlanes(planes []*frame.Plane) []byte {
	var buf bytes.Buffer
	buf.WriteString("GPLN")
	binary.Write(&buf, binary.BigEndian, uint32(len(planes)))
	for _, p := range planes {
		if p == nil {
			binary.Write(&buf, binary.BigEndian, uint32(0))
			binary.Write(&buf, binary.BigEndian, uint32(0))
			continue
		}
		binary.Write(&buf, binary.BigEndian, uint32(p.W))
		binary.Write(&buf, binary.BigEndian, uint32(p.H))
		buf.Write(p.Pix)
	}
	return buf.Bytes()
}
