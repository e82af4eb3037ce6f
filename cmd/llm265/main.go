// Command llm265 is the tensor-codec CLI: it encodes raw float32 tensors to
// .l265 containers and decodes them back, with fractional-bitrate or
// MSE-constrained rate control — the command-line face of the core library.
//
//	llm265 encode -rows 4096 -cols 4096 -bits 2.9 -in w.f32 -out w.l265
//	llm265 decode -in w.l265 -out w_rec.f32
//	llm265 info   -in w.l265
//	llm265 verify -in w.l265
//	llm265 pack   -store s -model m w.l265 ...
//	llm265 fetch  -store s -model m -out dir
//
// verify checks container integrity without writing anything and maps the
// decode-error taxonomy onto distinct exit codes so scripts can branch on
// the failure class:
//
//	0  stream is intact and fully decodable
//	3  corrupt (structural damage — alert, the producer is buggy or hostile)
//	4  truncated (stream ends early — retry the transfer)
//	5  checksum mismatch (bit-rot in transit or at rest — refetch)
//
// Every subcommand exits 1 on a usage or I/O error and 2 on an unknown
// subcommand or flag. encode, decode and verify accept -metrics <file> to dump the
// full observability snapshot (per-stage timings, bit accounting, worker-pool
// utilization, decode-error taxonomy — DESIGN.md §10) as JSON; "-" writes to
// stdout.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "encode":
		encodeCmd(os.Args[2:])
	case "decode":
		decodeCmd(os.Args[2:])
	case "info":
		infoCmd(os.Args[2:])
	case "verify":
		verifyCmd(os.Args[2:])
	case "pack":
		packCmd(os.Args[2:])
	case "fetch":
		fetchCmd(os.Args[2:])
	case "serve":
		serveCmd(os.Args[2:])
	case "proxy":
		proxyCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: llm265 encode|decode|info|verify|pack|fetch|serve|proxy [flags]")
	os.Exit(2)
}

// openMetrics interprets a -metrics flag value: "" disables collection (nil
// registry, no-op flush), any other value enables it and flush writes the
// JSON snapshot there ("-" = stdout).
func openMetrics(path string) (*obs.Registry, func()) {
	if path == "" {
		return nil, func() {}
	}
	reg := obs.NewRegistry()
	return reg, func() {
		var w io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteJSON(w); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llm265:", err)
	os.Exit(1)
}

func encodeCmd(args []string) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input file of little-endian float32 values")
		out      = fs.String("out", "", "output .l265 container")
		rows     = fs.Int("rows", 0, "tensor rows")
		cols     = fs.Int("cols", 0, "tensor cols")
		bits     = fs.Float64("bits", 0, "target bits per value (fractional allowed)")
		mse      = fs.Float64("mse", 0, "alternative: max MSE in the value domain")
		qp       = fs.Int("qp", -1, "alternative: fixed quantization parameter 0..51")
		profile  = fs.String("profile", "h265", "codec profile: h264|h265|av1")
		perRow   = fs.Bool("perrow", false, "per-row 8-bit mapping (outlier-heavy tensors)")
		workers  = fs.Int("workers", 0, "encode worker pool size (0 = GOMAXPROCS); output bytes are identical for any value")
		checksum = fs.Bool("checksum", false, "emit the hardened v3 container: CRC32C on header and every chunk, verified on decode")
		backend  = fs.String("backend", "cabac", "entropy backend: cabac (adaptive arithmetic, default) or rans (interleaved static rANS; implies the v3 container)")
		metrics  = fs.String("metrics", "", "write the observability snapshot as JSON to this file (\"-\" = stdout)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" || *rows <= 0 || *cols <= 0 {
		fatal(fmt.Errorf("encode requires -in, -out, -rows, -cols"))
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	if *rows > math.MaxInt/4 / *cols {
		fatal(fmt.Errorf("-rows %d x -cols %d is too large a tensor", *rows, *cols))
	}
	if len(raw) != *rows**cols*4 {
		fatal(fmt.Errorf("input is %d bytes, want %d (rows*cols*4)", len(raw), *rows**cols*4))
	}
	data := make([]float32, *rows**cols)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	t := core.FromSlice(*rows, *cols, data)

	opts := core.DefaultOptions()
	opts.PerRowQuant = *perRow
	opts.Workers = *workers
	opts.Checksum = *checksum
	if opts.Profile, err = codec.ParseProfile(*profile); err != nil {
		fatal(err)
	}
	if opts.Backend, err = codec.ParseBackend(*backend); err != nil {
		fatal(err)
	}
	reg, flush := openMetrics(*metrics)
	opts.Metrics = reg

	var enc *core.Encoded
	switch {
	case *bits > 0:
		enc, err = opts.EncodeToBitrate(t, *bits)
	case *mse > 0:
		enc, _, err = opts.EncodeToMSE(t, *mse)
	case *qp >= 0:
		enc, err = opts.Encode(t, *qp)
	default:
		fatal(fmt.Errorf("one of -bits, -mse or -qp is required"))
	}
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, enc.Marshal(), 0o644); err != nil {
		fatal(err)
	}
	flush()
	fmt.Printf("encoded %dx%d at %.3f bits/value (QP %d, pixel MSE %.3f, %d chunk(s)) -> %s (%.1fx vs FP16)\n",
		*rows, *cols, enc.BitsPerValue(), enc.QP, enc.Stats.MSE, enc.Stats.Chunks, *out, 16/enc.BitsPerValue())
}

func decodeCmd(args []string) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input .l265 container")
		out     = fs.String("out", "", "output float32 file")
		workers = fs.Int("workers", 0, "decode worker pool size (0 = GOMAXPROCS)")
		metrics = fs.String("metrics", "", "write the observability snapshot as JSON to this file (\"-\" = stdout)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("decode requires -in and -out"))
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	enc, err := core.UnmarshalEncoded(blob)
	if err != nil {
		fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Workers = *workers
	reg, flush := openMetrics(*metrics)
	opts.Metrics = reg
	layers, err := opts.DecodeStackCtx(context.Background(), enc)
	if err != nil {
		fatal(err)
	}
	// The layers of a stack are written back to back in layer order.
	raw := make([]byte, 0, enc.Layers*enc.Rows*enc.Cols*4)
	for _, t := range layers {
		for _, v := range t.Data {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
	flush()
	fmt.Printf("decoded %d layer(s) of %dx%d -> %s\n", enc.Layers, enc.Rows, enc.Cols, *out)
}

func infoCmd(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input .l265 container")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("info requires -in"))
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	enc, err := core.UnmarshalEncoded(blob)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tensor:      %d layer(s) of %dx%d\n", enc.Layers, enc.Rows, enc.Cols)
	fmt.Printf("qp:          %d\n", enc.QP)
	fmt.Printf("per-row map: %v\n", enc.PerRow)
	fmt.Printf("size:        %d bytes (%.3f bits/value)\n", enc.SizeBits()/8, enc.BitsPerValue())
	if len(enc.Stream) >= 5 {
		checked := "no (v1/v2 container)"
		if enc.Stream[4] == 3 {
			checked = "yes (v3 container, CRC32C)"
		}
		fmt.Printf("checksummed: %s\n", checked)
		fmt.Printf("backend:     %s\n", codec.StreamBackend(enc.Stream))
	}
}

// Exit codes of the verify subcommand, one per decode-failure class.
const (
	exitOK        = 0
	exitCorrupt   = 3
	exitTruncated = 4
	exitChecksum  = 5
)

func verifyCmd(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		in      = fs.String("in", "", "input .l265 container")
		workers = fs.Int("workers", 0, "decode worker pool size (0 = GOMAXPROCS)")
		partial = fs.Bool("partial", false, "on damage, also report which chunks/layers are still recoverable")
		metrics = fs.String("metrics", "", "write the observability snapshot as JSON to this file (\"-\" = stdout)")
	)
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("verify requires -in"))
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Workers = *workers
	reg, flush := openMetrics(*metrics)
	opts.Metrics = reg

	verdict := func(err error) {
		flush()
		fmt.Printf("%s: DAMAGED: %v\n", *in, err)
		os.Exit(damageExitCode(err))
	}

	enc, err := core.UnmarshalEncoded(blob)
	if err != nil {
		verdict(err)
	}
	if !*partial {
		if _, err := opts.DecodeStackCtx(context.Background(), enc); err != nil {
			verdict(err)
		}
		flush()
		fmt.Printf("%s: OK (%d layer(s) of %dx%d, %.3f bits/value)\n",
			*in, enc.Layers, enc.Rows, enc.Cols, enc.BitsPerValue())
		return
	}

	_, report, err := opts.DecodeStackPartialCtx(context.Background(), enc)
	if err != nil {
		verdict(err)
	}
	flush()
	if report.Complete() {
		fmt.Printf("%s: OK (%d chunk(s), %d plane(s))\n", *in, report.Chunks, report.TotalPlanes)
		return
	}
	fmt.Printf("%s: DAMAGED: %d of %d chunk(s) failed, %d of %d plane(s) recovered\n",
		*in, report.FailedChunks, report.Chunks, report.RecoveredPlanes, report.TotalPlanes)
	for _, ce := range report.ChunkErrors {
		fmt.Printf("  chunk %d (planes %d..%d): %v\n",
			ce.Chunk, ce.PlaneStart, ce.PlaneStart+ce.PlaneCount-1, ce.Err)
	}
	for _, d := range report.Damaged {
		fmt.Printf("  layer %d: %d of %d plane(s) lost\n", d.Layer, d.MissingPlanes, d.TotalPlanes)
	}
	// The exit code reflects the first chunk failure's class.
	os.Exit(damageExitCode(report.ChunkErrors[0]))
}

// damageExitCode maps the decode-error taxonomy onto verify's exit codes.
func damageExitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrChecksum):
		return exitChecksum
	case errors.Is(err, core.ErrTruncated):
		return exitTruncated
	}
	return exitCorrupt
}
