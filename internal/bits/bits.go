// Package bits provides MSB-first bitstream readers and writers.
//
// The writer accumulates bits into an in-memory buffer; the reader consumes a
// byte slice. Both are deliberately allocation-light: the encoder hot loops
// call WriteBit/WriteBits millions of times per tensor.
package bits

import (
	"errors"
	"fmt"
)

// ErrOutOfData is returned when a reader runs past the end of its buffer.
var ErrOutOfData = errors.New("bits: out of data")

// Writer writes bits MSB-first into an internal buffer.
type Writer struct {
	buf  []byte
	cur  uint8 // bits accumulated into the current byte
	nCur uint  // number of valid bits in cur (0..7)
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b int) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n may be 0.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bits: WriteBits n=%d", n))
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes returns the written stream, first padding the current byte with zero
// bits. The returned slice aliases the writer's buffer; the writer may still
// be appended to, but callers usually finish with Bytes.
func (w *Writer) Bytes() []byte {
	for w.nCur != 0 {
		w.WriteBit(0)
	}
	return w.buf
}

// Reader reads bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within buf[pos], 0 = MSB
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (int, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrOutOfData
	}
	b := int(r.buf[r.pos] >> (7 - r.bit) & 1)
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// ReadBits reads n bits MSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}
