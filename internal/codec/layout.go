// Container byte geometry (DESIGN.md §15): Layout, which the chunk store
// uses to split a container without decoding it.
package codec

// ChunkEntry locates one chunk inside a container: the absolute byte offset
// of its payload, the payload length, and the contiguous plane span it
// decodes to.
type ChunkEntry struct {
	Offset     int64 // absolute payload offset from the container start
	Length     int   // payload length in bytes
	PlaneBase  int   // index of the chunk's first plane
	PlaneCount int   // number of planes the chunk decodes to
}

// ContainerLayout describes a container's byte geometry without decoding any
// payload: where the header ends and where each chunk payload lives. The
// chunk store uses it to split a container into content-addressable pieces
// that reassemble byte-identically.
type ContainerLayout struct {
	Planes    int          // total planes the container decodes to
	HeaderLen int          // bytes before the first payload
	Entries   []ChunkEntry // per-chunk payload spans, in container order
}

// Layout parses a container down to its byte geometry, strictly (any framing
// defect is a typed error; a v3 container's CRCs are verified).
func Layout(data []byte) (*ContainerLayout, error) {
	pc, err := parseContainer(data, false, false)
	if err != nil {
		return nil, err
	}
	lay := &ContainerLayout{
		Planes:    len(pc.dims),
		HeaderLen: pc.payloadBase,
		Entries:   make([]ChunkEntry, len(pc.chunks)),
	}
	off := int64(pc.payloadBase)
	for i, c := range pc.chunks {
		lay.Entries[i] = ChunkEntry{Offset: off, Length: len(c.payload), PlaneBase: c.planeBase, PlaneCount: len(c.dims)}
		off += int64(len(c.payload))
	}
	return lay, nil
}
