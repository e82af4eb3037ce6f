package codec

// For the external tests (package codec_test), which hold the store and the
// core decode paths to the same streams at rest.
var (
	IndexedStream    = indexedStream
	AppendOldTrailer = appendOldTrailer
)
