package codec

import (
	"errors"
	"fmt"

	"repro/internal/bits"
)

// Decode-path error taxonomy. Decode, in every DecodeConfig combination,
// returns errors (and reports ChunkErrors) that match exactly one of these
// sentinels under errors.Is, and never panics:
//
//   - ErrTruncated: the container or a substream ends before the data it
//     declares. Retrying with the complete stream should succeed.
//   - ErrChecksum: a version-3 chunk (or header) fails its CRC32C check.
//     The bytes are the right length but damaged.
//   - ErrCorrupt: any other structural violation — bad magic, impossible
//     header fields, malformed entropy payloads, out-of-range symbols.
//
// The split matters operationally: a serving layer retries ErrTruncated
// (partial read), discards-and-refetches ErrChecksum (bit-rot in transit or
// at rest), and alerts on ErrCorrupt (encoder bug or hostile input).
var (
	// ErrCorrupt reports a structurally invalid bitstream.
	ErrCorrupt = errors.New("codec: corrupt bitstream")
	// ErrTruncated reports a bitstream that ends before its declared data.
	ErrTruncated = errors.New("codec: truncated bitstream")
	// ErrChecksum reports a chunk whose CRC32C does not match its payload.
	ErrChecksum = errors.New("codec: checksum mismatch")
)

// ErrEmptyInput reports an encode request over zero pixels — an empty plane
// list, a nil plane, or a plane with a zero dimension. Encode rejects such
// inputs up front: bits-per-pixel is undefined at zero pixels (0/0 → NaN),
// which would otherwise silently break a rate-control bisection's comparison
// logic (the searches live in internal/core, which re-exports this error).
var ErrEmptyInput = errors.New("codec: empty input")

// corruptf wraps ErrCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// truncatedf wraps ErrTruncated with positional detail.
func truncatedf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrTruncated)...)
}

// classifyStreamErr maps low-level reader errors onto the taxonomy:
// running out of bits is truncation, everything else is corruption.
func classifyStreamErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTruncated), errors.Is(err, ErrChecksum), errors.Is(err, ErrCorrupt):
		return err
	case errors.Is(err, bits.ErrOutOfData):
		return fmt.Errorf("%v: %w", err, ErrTruncated)
	default:
		return fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
}
