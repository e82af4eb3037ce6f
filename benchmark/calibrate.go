package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"time"
)

// The host this benchmark runs on is a small VM among other tenants, and its
// speed moves by a fifth to a half for seconds to minutes at a time: the same
// binary on the same inputs reads 100 ms an encode in one quarter of an hour
// and 78 ms in the next. No statistic of the op times alone removes that (the
// median, lower quantiles and the minimum of a run all move together), so
// every client also runs a fixed calibration kernel of the benchmark's own —
// before its first op, after its last, and in between whenever calEvery has
// gone since the last one — and an op's time is reported as
//
//	op time × calNominalMs ÷ (mean of the calibration times before and after it)
//
// that is, as the time the op would take on a host that runs the kernel in
// exactly calNominalMs. The kernel never calls the program under test, so a
// change to the program moves the op time and not the yardstick. README.md
// ("Calibration") has the measurements that led here and what they bought.
const (
	calNominalMs = 12.0 // about what the kernel takes on the host the benchmark was written on, when quiet
	calEvery     = 100 * time.Millisecond
)

// calibrator is one client's kernel: DEFLATE of a fixed low-entropy buffer
// (table look-ups, unpredictable branches, a window larger than L1) and a
// small float32 matrix product (arithmetic, strided loads) — the codec's own
// mix of work, long enough (about 12 ms) that a burst of the host lands in it
// as it lands in an op.
type calibrator struct {
	text    []byte
	a, b, c []float32
	out     bytes.Buffer
	fw      *flate.Writer
}

const calN = 96 // the matrix product is calN×calN×calN, four times over

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(265))
	k := &calibrator{text: make([]byte, 256<<10)}
	for i := range k.text {
		k.text[i] = byte(rng.NormFloat64()*6) & 0x3f
	}
	k.a, k.b, k.c = make([]float32, calN*calN), make([]float32, calN*calN), make([]float32, calN*calN)
	for i := range k.a {
		k.a[i], k.b[i] = rng.Float32(), rng.Float32()
	}
	k.fw, _ = flate.NewWriter(&k.out, 5) // the error is for a level out of range
	return k
}

// run executes the kernel once and returns how long it took, in ms.
func (k *calibrator) run() float64 {
	t0 := time.Now()
	k.out.Reset()
	k.fw.Reset(&k.out)
	k.fw.Write(k.text) // a bytes.Buffer does not fail
	k.fw.Close()
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < calN; i++ {
			for j := 0; j < calN; j++ {
				var acc float32
				for l := 0; l < calN; l++ {
					acc += k.a[i*calN+l] * k.b[l*calN+j]
				}
				k.c[i*calN+j] = acc
			}
		}
	}
	return float64(time.Since(t0)) / 1e6
}
