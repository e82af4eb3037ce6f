package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensorgen"
)

// The CLI contract: the binary is built once and driven as a user would, and
// its files are held to the bytes the core library produces for the same
// options, its exit codes to the documented 0/1/2/3/4/5.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "llm265-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "llm265")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns its output streams and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var so, se bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("llm265 %v: %v", args, err)
	}
	return so.String(), se.String(), cmd.ProcessState.ExitCode()
}

const testRows, testCols = 64, 64

func testTensor(seed int64) *core.Tensor {
	return core.FromSlice(testRows, testCols,
		tensorgen.Weights(rand.New(rand.NewSource(seed)), testRows, testCols))
}

func f32Bytes(layers ...*core.Tensor) []byte {
	var raw []byte
	for _, l := range layers {
		for _, v := range l.Data {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
	}
	return raw
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodeInfo: for each rate-control and container choice, `info` reads
// back the geometry and backend `encode` wrote, and `encode -bits` writes
// core's EncodeStackToBitrate bytes. That `encode -qp` writes core's Marshal bytes
// and `decode` core's reconstruction is internal/conformance's CLI path.
func TestEncodeInfo(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		info  []string
	}{
		{"qp", []string{"-qp", "24"}, []string{"qp:          24", "checksummed: no", "backend:     cabac"}},
		{"bits", []string{"-bits", "3"}, []string{"checksummed: no", "backend:     cabac"}},
		{"checksum-rans", []string{"-qp", "24", "-checksum", "-backend", "rans"},
			[]string{"qp:          24", "checksummed: yes", "backend:     rans"}},
	}
	x := testTensor(1)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			in, l265 := filepath.Join(dir, "x.f32"), filepath.Join(dir, "x.l265")
			writeFile(t, in, f32Bytes(x))

			args := append([]string{"encode", "-rows", fmt.Sprint(testRows), "-cols", fmt.Sprint(testCols),
				"-in", in, "-out", l265}, c.flags...)
			if _, stderr, code := run(t, args...); code != 0 {
				t.Fatalf("encode exit %d: %s", code, stderr)
			}
			if c.name == "bits" {
				want, _, err := core.DefaultOptions().EncodeStackToBitrate(context.Background(), []*core.Tensor{x}, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(readFile(t, l265), want.Marshal()) {
					t.Fatal("encode -bits wrote different bytes than core's EncodeStackToBitrate")
				}
			}
			stdout, stderr, code := run(t, "info", "-in", l265)
			if code != 0 {
				t.Fatalf("info exit %d: %s", code, stderr)
			}
			for _, line := range append(c.info, fmt.Sprintf("1 layer(s) of %dx%d", testRows, testCols)) {
				if !strings.Contains(stdout, line) {
					t.Errorf("info output lacks %q:\n%s", line, stdout)
				}
			}
		})
	}
}

// stackContainer encodes a checksummed multi-layer stack — what POST
// /v1/encode?layers=N returns and what `fetch` writes back for a packed stack.
func stackContainer(t *testing.T, layers int) *core.Encoded {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Checksum = true
	stack := make([]*core.Tensor, layers)
	for l := range stack {
		stack[l] = testTensor(int64(l))
	}
	enc, err := opts.EncodeStackCtx(context.Background(), stack, 24)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestDecodeWritesEveryLayer: an N-layer container decodes to N·rows·cols·4
// bytes, DecodeStack's layers back to back in layer order.
func TestDecodeWritesEveryLayer(t *testing.T) {
	enc := stackContainer(t, 3)
	dir := t.TempDir()
	l265, out := filepath.Join(dir, "s.l265"), filepath.Join(dir, "s.f32")
	writeFile(t, l265, enc.Marshal())

	stdout, stderr, code := run(t, "decode", "-in", l265, "-out", out)
	if code != 0 {
		t.Fatalf("decode exit %d: %s", code, stderr)
	}
	if want := fmt.Sprintf("3 layer(s) of %dx%d", testRows, testCols); !strings.Contains(stdout, want) {
		t.Errorf("decode printed %q, want it to name %q", stdout, want)
	}
	layers, err := core.DefaultOptions().DecodeStackCtx(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	got := readFile(t, out)
	if len(got) != 3*testRows*testCols*4 {
		t.Fatalf("decode wrote %d bytes, want %d", len(got), 3*testRows*testCols*4)
	}
	if !bytes.Equal(got, f32Bytes(layers...)) {
		t.Fatal("decode output differs from DecodeStack's layers in order")
	}
}

// TestVerifyExitCodes: one exit code per damage class, the same with and
// without -partial, and -partial names the chunk that failed.
func TestVerifyExitCodes(t *testing.T) {
	// Sixteen 64x64 layers fill two chunks of eight planes.
	intact := stackContainer(t, 16).Marshal()
	flip := func(at int, mask byte) []byte {
		b := bytes.Clone(intact)
		b[at] ^= mask
		return b
	}
	cases := []struct {
		name    string
		blob    []byte
		code    int
		partial string // what -partial must print
	}{
		{"intact", intact, exitOK, "OK"},
		{"header-bit-flip", flip(0, 0x01), exitCorrupt, "DAMAGED"},
		{"truncated", intact[:len(intact)-20], exitTruncated, "DAMAGED"},
		// The v3 container ends with its last chunk's payload.
		{"payload-bit-flip", flip(len(intact)-10, 0x10), exitChecksum, "chunk 1 (planes 8..15)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v.l265")
			writeFile(t, path, c.blob)
			if stdout, _, code := run(t, "verify", "-in", path); code != c.code {
				t.Errorf("verify exit %d, want %d:\n%s", code, c.code, stdout)
			}
			stdout, _, code := run(t, "verify", "-partial", "-in", path)
			if code != c.code {
				t.Errorf("verify -partial exit %d, want %d:\n%s", code, c.code, stdout)
			}
			if !strings.Contains(stdout, c.partial) {
				t.Errorf("verify -partial output lacks %q:\n%s", c.partial, stdout)
			}
		})
	}
}

// TestUsageErrors: a subcommand missing its required flags (or given an
// impossible geometry, more than one of encode's rate flags, or a rate target
// no search can honour) exits 1 with a message; no subcommand or an unknown
// one — the retired `bench` included — prints usage and exits 2, as does a
// flag the subcommand does not define (the retired -fast-search, proxy's
// -vnodes, serve's -deadline) or a flag
// value it cannot run at (serve's -kv-qp: a server started with it would
// answer its kv PUTs 400; the unlistenable -addr keeps a regression from
// hanging the test).
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	empty, in := filepath.Join(dir, "empty.f32"), filepath.Join(dir, "x.f32")
	writeFile(t, empty, nil)
	writeFile(t, in, f32Bytes(testTensor(1)))
	geometry := []string{"-rows", fmt.Sprint(testRows), "-cols", fmt.Sprint(testCols)}
	half := fmt.Sprint(1 << (strconv.IntSize/2 - 1)) // an edge whose square ×4 is 2^IntSize
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"encode-no-flags", []string{"encode"}, 1, "encode requires"},
		{"encode-no-rate", append([]string{"encode", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "one of -bits, -mse or -qp"},
		// The rate mode is the flag that was set, not the first usable value.
		{"encode-bits-nan-and-qp", append([]string{"encode", "-bits", "NaN", "-qp", "24", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...),
			1, "exactly one of -bits, -mse or -qp is required, got [-bits -qp]"},
		{"encode-bits-and-qp", append([]string{"encode", "-bits", "2", "-qp", "24", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...),
			1, "exactly one of -bits, -mse or -qp is required, got [-bits -qp]"},
		{"encode-negative-bits-and-mse", append([]string{"encode", "-bits", "-1", "-mse", "0.01", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...),
			1, "exactly one of -bits, -mse or -qp is required, got [-bits -mse]"},
		{"encode-bits-nan", append([]string{"encode", "-bits", "NaN", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "bad rate-control target"},
		{"encode-bits-zero", append([]string{"encode", "-bits", "0", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "bad rate-control target"},
		{"encode-bits-negative", append([]string{"encode", "-bits", "-1", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "bad rate-control target"},
		{"encode-mse-nan", append([]string{"encode", "-mse", "NaN", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "bad rate-control target"},
		{"encode-wrong-size", append([]string{"encode", "-qp", "24", "-in", empty, "-out", filepath.Join(dir, "o.l265")}, geometry...), 1, "input is 0 bytes"},
		// rows*cols*4 wraps to 0 in an int of either word size, which is the
		// empty input's length: without the product guard this passed the
		// length check and panicked in make.
		{"encode-overflow", []string{"encode", "-qp", "24", "-in", empty, "-out", filepath.Join(dir, "o.l265"),
			"-rows", half, "-cols", half}, 1, "too large"},
		{"decode-no-flags", []string{"decode"}, 1, "decode requires"},
		{"info-no-flags", []string{"info"}, 1, "info requires"},
		{"verify-no-flags", []string{"verify"}, 1, "verify requires"},
		{"pack-no-flags", []string{"pack"}, 1, "pack requires"},
		{"fetch-no-flags", []string{"fetch"}, 1, "fetch requires"},
		{"proxy-no-flags", []string{"proxy"}, 1, "proxy requires"},
		{"no-subcommand", nil, 2, "usage: llm265"},
		{"unknown-subcommand", []string{"frobnicate"}, 2, "usage: llm265"},
		{"retired-bench", []string{"bench", "-layers", "2"}, 2, "usage: llm265"},
		{"encode-retired-fast-search", append([]string{"encode", "-fast-search", "-qp", "24", "-in", in, "-out", filepath.Join(dir, "o.l265")}, geometry...),
			2, "flag provided but not defined: -fast-search"},
		{"proxy-retired-vnodes", []string{"proxy", "-addr", "nowhere", "-backends", "nowhere", "-vnodes", "128"}, 2, "flag provided but not defined: -vnodes"},
		{"serve-retired-deadline", []string{"serve", "-addr", "nowhere", "-deadline", "1s"}, 2, "flag provided but not defined: -deadline"},
		{"serve-kv-qp-above-range", []string{"serve", "-addr", "nowhere", "-kv-qp", "52"}, 2, "flag -kv-qp: out of range [0, 51]"},
		{"serve-kv-qp-negative", []string{"serve", "-addr", "nowhere", "-kv-qp", "-1"}, 2, "flag -kv-qp: out of range [0, 51]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := run(t, c.args...)
			if code != c.code {
				t.Errorf("exit %d, want %d: %s", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.stderr) || strings.Contains(stderr, "panic") {
				t.Errorf("stderr lacks %q (or panicked):\n%s", c.stderr, stderr)
			}
		})
	}
}

// TestVerifyRefusesRetiredLayouts: a tensor file whose stream a retired
// layout wrote — codec's binary-rANS fixture framed as one 31×33 layer, its
// raw-bin fixture as one 64×64 layer, and its chunk-index trailer fixture
// framed as three 64×192 layers — is corrupt (exit 3), and verify names the
// layout. Under -partial the rANS and raw-bin streams stay corrupt, while the
// trailer stream recovers every layer: its chunks are whole, only the bytes
// after them are refused.
func TestVerifyRefusesRetiredLayouts(t *testing.T) {
	cases := []struct {
		name, fixture, layout string
		enc                   core.Encoded
		partialCode           int
		partialOut            string
	}{
		{"binary-rans", "retired-binary-rans-hevc-noise-33x31-qp16.l265", "retired binary-rANS layout",
			core.Encoded{Layers: 1, Rows: 31, Cols: 33, MaxFrameW: 33, MaxFrameH: 31, QP: 16,
				Scales: []float32{1}, Zeros: []float32{0}},
			exitCorrupt, "retired binary-rANS layout"},
		{"raw-bins", "retired-raw-bins-hevc-64x64-qp30.l265", "retired raw-bin layout",
			core.Encoded{Layers: 1, Rows: 64, Cols: 64, MaxFrameW: 64, MaxFrameH: 64, QP: 30,
				Scales: []float32{1}, Zeros: []float32{0}},
			exitCorrupt, "retired raw-bin layout"},
		{"trailer", "retired-trailer-v3-9x64x64.l265", "retired chunk-index trailer layout",
			core.Encoded{Layers: 3, Rows: 64, Cols: 192, MaxFrameW: 64, MaxFrameH: 64, QP: 30,
				Scales: []float32{1, 1, 1}, Zeros: []float32{0, 0, 0}},
			0, "OK (2 chunk(s), 9 plane(s))"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stream, err := os.ReadFile(filepath.Join("..", "..", "internal", "codec", "testdata", c.fixture))
			if err != nil {
				t.Fatal(err)
			}
			enc := c.enc
			enc.Stream = stream
			path := filepath.Join(t.TempDir(), "retired.l265")
			writeFile(t, path, enc.Marshal())
			if stdout, _, code := run(t, "verify", "-in", path); code != exitCorrupt || !strings.Contains(stdout, c.layout) {
				t.Errorf("verify: exit %d, want %d naming the %s:\n%s", code, exitCorrupt, c.layout, stdout)
			}
			if stdout, _, code := run(t, "verify", "-partial", "-in", path); code != c.partialCode || !strings.Contains(stdout, c.partialOut) {
				t.Errorf("verify -partial: exit %d, want %d with %q:\n%s", code, c.partialCode, c.partialOut, stdout)
			}
		})
	}
}
