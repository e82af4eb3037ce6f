# Build/verify entry points for the llm265 reproduction.
#
# `make ci` is the canonical verify step: it builds everything, vets, runs
# the test suite (which includes the exhaustive corruption sweeps and the
# fuzz targets' seed corpora), repeats it as GOARCH=386 (the pure-Go kernels
# of the non-amd64 build) and vets GOARCH=arm64, repeats it under the race
# detector — mandatory since the encode/decode engine fans plane chunks out across a
# goroutine worker pool (internal/codec/engine.go) — and finishes with a
# short coverage-guided fuzz pass over the decode entry points. Speed is
# measured only by the repository benchmark (benchmark/, `make bench-ab`),
# never gated in ci: every ci step is deterministic.

GO ?= go

# Per-target time budget for the fuzz smoke pass.
FUZZTIME ?= 10s

.PHONY: all build test vet surface portable race ci bench-micro bench-parallel bench-ab figures-diff fuzz-smoke serve-test proxy-test store-test kv-test train-test benchmark-test loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail in seconds, not after the suite: everything compiles (the nested
# benchmark module too, against this tree with benchmark/surface.go unedited),
# the two closed API surfaces — codec's Encode/Decode, core's seven Options
# methods — and the closed field lists of core.Options, codec.EncodeConfig and
# codec.DecodeConfig, each field with its setter, still hold, codec.Profile is
# still a three-valued id that every encode entry point refuses out of range
# (TestUnknownProfileRefused),
# llm's Codec and Residual still answer every call of TestCompressorPins as
# recorded before their rate law moved out of core,
# the reconstruction Encode hands out is still the one
# Decode computes (codec's and core's ReconIsDecode contracts), every path of
# every kernel still computes its definition's integers (the tests of DESIGN.md
# §11.1 that hold each kernel to its refimpl_test.go, their fuzz seeds and the
# limits), and every definition still has a test that holds a kernel to it
# (TestKernelReferencesAreLive), every rate-distortion decision and the ring's
# QP law are integer arithmetic — no float, float literal or math call in
# them, so neither libm nor a contracted multiply-add can move a byte on
# another architecture (TestRDDecisionsAreInteger) — and production
# is closed: every function under internal/ is reached from a main in cmd/*,
# examples/* or benchmark/, or is entered with its reason in surface_test.go's
# allow-list (TestProductionSurfaceIsClosed; a failure prints each unreached
# function with its position and line count). The golden corpus is closed
# (TestCorpusIsClosed: no file without a vector, no vector without its two
# files), only the conformance sweep and the refimpl_test.go kernel tests force
# the pure-Go kernels (TestKernelFlagIsContained), a strict parse still refuses
# any byte after a container's last payload — the retired chunk-index trailer
# by name, in codec and in store.Pack, while Partial recovers every chunk
# (TestRetiredTrailerRefused), and a stray byte or a version-byte flip on
# every version (TestTrailingBytesAreCorrupt) — a header refuses the retired
# raw-bin layout by name and any reserved tools bit (TestRetiredRawBinsRefused,
# TestToolsByteIsStrict) — and the sweep's codec rows —
# every golden vector re-encoded and decoded on both kernel paths at every
# worker count, against the committed bytes — catch a byte drift in seconds.
# Metrics switch off one way (TestMetricsHelpersInline): every nil-safe
# recording helper of codec and kv, and the obs handles kv, store and core
# call directly, is one the compiler inlines, so disabled metrics cost one nil
# test at a record site.
# Every Go file of the root module and of benchmark/ is gofmt-clean: the step
# lists any file `gofmt -l` would rewrite, and fails. The first step of ci.
surface: vet
	@unformatted=$$(find . -name '*.go' ! -path '*/.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -run 'SurfaceIsClosed|OptionFieldsAreClosed|UnknownProfileRefused|ReconIsDecode|KernelReferencesAreLive|RDDecisionsAreInteger|CorpusIsClosed|KernelFlagIsContained|RetiredTrailerRefused|RetiredRawBinsRefused|ToolsByteIsStrict|TrailingBytesAreCorrupt|CompressorPins|MetricsHelpersInline' . ./internal/codec/ ./internal/core/ ./internal/llm/ ./internal/store/
	$(GO) test -run 'Equivalence|Pinned|Limits|MatchesReference|^Fuzz(Lanes|SIMDKernels|ParseResidual)$$' ./internal/cabac/ ./internal/dct/ ./internal/intra/ ./internal/codec/ ./internal/quant/
	$(GO) test -run 'TestConformance/./././^v[0-9]/^codec$$' ./internal/conformance/
	$(GO) vet -C benchmark ./...

# The other build. 386 binaries run natively on an amd64 host: the suite
# there runs the pure-Go kernels, the !amd64 stubs, and
# TestProductionSurfaceIsClosed over the files that build selects. arm64 is
# vetted only; `vet` already checks the amd64 assembly's frames (asmdecl).
# The contraction guard, root TestNoFusedMultiplyAdd (≈ 20 s on a cold build
# cache), compiles the packages whose floats reach a stream, a decoded tensor
# or a wire value for arm64, where Go fuses x*y + z, and fails on any
# FMADD/FMSUB/FNMADD/FNMSUB with its source line; as a root-package test it
# runs in every `go test ./...`, the 386 suite here included. Standard-library
# math is outside it; TestRDDecisionsAreInteger (in `surface`) keeps it out of
# every decision that chooses a byte.
portable:
	GOARCH=386 $(GO) test ./...
	GOARCH=arm64 $(GO) vet ./...

# Race-detector run over the full tree; catches any data race in the
# parallel engine's worker pools and in the metrics registry.
race:
	$(GO) test -race ./...

# serve-test, proxy-test and store-test are developer shortcuts: env-free
# subsets of `race`, which is what ci runs.

# The serve harness under the race detector: the integration suite, the
# error-taxonomy table, the deadline/backpressure/drain tests and the
# 64-client soak all run with -race so the admission scheduler, the shared
# worker pool and the shared obs registry are exercised concurrently on
# every CI pass (DESIGN.md §12).
serve-test:
	$(GO) test -race ./internal/serve/

# The fleet harness under the race detector: consistent-hash routing, the
# deterministic fault-injection sweeps ({latency, reset, truncation, 500,
# 503-drain} × {encode, decode}), breaker/prober unit tests, and the
# subprocess soak that SIGKILLs one of three real `llm265 serve` backends
# mid-traffic and requires it to rejoin on its own with zero corrupt
# responses (DESIGN.md §14). That the proxy over 1, 2 and 3 backends returns
# a backend's exact bytes is internal/conformance's proxy path.
proxy-test:
	$(GO) test -race ./internal/proxy/ ./internal/faultinject/

# The content-addressed store under the race detector: pack/fetch round-trip
# and stitch validation, cross-checkpoint dedupe, manifest tamper rejection,
# and the Model LRU (budget bound, hit/miss/eviction accounting) hammered
# from concurrent goroutines (DESIGN.md §15). The packed-inference test in
# internal/llm rides along because it is the end-to-end consumer of the LRU.
store-test:
	$(GO) test -race ./internal/store/ ./internal/llm/

# The KV-cache tier under the race detector: flush-counter, aliasing,
# eviction-order, rejected-append and chunk-table unit tests, the
# aliased-twin property, the HTTP handlers' round trip, taxonomy and 206
# windows (internal/serve's TestKV* and the FuzzKVRequest seeds), and the
# full-scale soak — KV_SOAK=1 raises it to ≥2,000 concurrent sessions of
# interleaved append/read/expire churn under a tight byte budget, asserting
# zero corrupt reads, resident≤budget at every sample, 206 windows
# consistent with the eviction log, and a leak-free drain, and logs the live
# heap beside Resident and Budget (DESIGN.md §16).
# That a ranged read under any append schedule returns the one-shot bytes, at
# every worker count, is internal/conformance's kv path (CABAC cells: KV
# chunks are CABAC only).
kv-test:
	KV_SOAK=1 $(GO) test -race ./internal/kv/ -timeout 30m
	$(GO) test -race -run KV ./internal/serve/

# The concurrent ring-allreduce under the race detector: the determinism
# properties (uncompressed concurrent ≡ bit-identical sequential; compressed
# byte-deterministic across schedule seeds — across worker counts, backends
# and kernels it is internal/conformance's allreduce path), the
# error-feedback and wire-codec unit tests, and the chaos soak — TRAIN_SOAK=1 raises the ring to ≥96 workers of randomized
# scheduling with mid-run cancellation, asserting bit-exact reductions,
# context-clean unwinds and a leak-free goroutine drain (DESIGN.md §17).
# Only internal/allreduce reads TRAIN_SOAK; internal/train runs with `race`'s
# exact flags so that ci's `race` step reuses its cached result instead of
# spending the package's minutes under -race twice.
train-test:
	TRAIN_SOAK=1 $(GO) test -race ./internal/allreduce/ -timeout 30m
	$(GO) test -race ./internal/train/

# The nested benchmark module (benchmark/, its own go.mod): `go build ./...`
# and `go test ./...` at the root never compile it, so this is the only CI
# step that notices a refactor breaking one of benchmark/surface.go's
# bindings into repro/internal/*.
benchmark-test:
	$(GO) test -C benchmark ./...

# kv-test and train-test stay beside `race` because KV_SOAK=1/TRAIN_SOAK=1
# change what runs. The steps run in order, each followed by its wall time
# (`ci: <step> <N> s`), and the first failure stops the run.
ci:
	@for step in surface build test portable benchmark-test kv-test train-test race fuzz-smoke; do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$step || exit 1; \
		echo "ci: $$step $$(($$(date +%s) - start)) s"; \
	done

# Coverage-guided fuzzing of every decode entry point, FUZZTIME per target.
# Each target is seeded from valid round-trip containers, so the fuzzer
# starts at deep coverage; any input that panics or produces an untyped
# error is minimized and written to testdata/fuzz/ for replay by `go test`.
# The kernel targets, one a package, each holding every kernel path the host
# runs to its definition (DESIGN.md §11.1): FuzzLanes (dct), any block through
# the transforms against the dense product, seeded on the paired passes' and
# the float kernels' limits; FuzzSIMDKernels (intra), every mode's score
# against the line sums of the per-pixel formula and Predict's and the
# scorer's predictions against the formula's block, raw and smoothed, seeded
# on the sample range's ends and the line exits; FuzzParseResidual (codec),
# CABAC's block parse against the per-bin loop on arbitrary payloads.
fuzz-smoke:
	$(GO) test ./internal/codec/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec/ -run '^$$' -fuzz FuzzParseResidual -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeStack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/entropy/ -run '^$$' -fuzz FuzzEntropy -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dct/ -run '^$$' -fuzz FuzzLanes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/intra/ -run '^$$' -fuzz FuzzSIMDKernels -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzServeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzKVRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/allreduce/ -run '^$$' -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME)

# One pass over every paper-artifact micro-benchmark (testing.B), then the
# transform, quantiser, prediction, RD-trial, residual-parse and reconstruct
# kernels on their own — each rotating over 64 blocks cut from a generated
# weight plane, dense at QP 12 and sparse at QP 30, so that no branch predictor
# memorises its input (DESIGN.md §11.1) — the whole coarse intra search of a
# leaf at n = 8, 16 and 32 (CoarseIntra), and the rANS pre-decode in ns a bin
# on a QP-12 weight layer, beside its definition; then the one-layer random-access
# decode at 1 and 2 workers — inline against parse ‖ reconstruct (DESIGN.md
# §13.4) — and the whole-stack decode at one worker under either backend.
bench-micro:
	$(GO) test -bench=. -benchtime=1x
	$(GO) test -run '^$$' -bench 'Forward|Inverse|Quantize|Dequantize|Predict(Angular|Planar|DC)|Score(Angular|PlanarDC)|CoarseIntra|TrialResidual|EstimateLevelBits|ParseResidual|EmitResidual|PredecodeRANS|ReconstructCTU' -benchtime=2000x ./internal/dct/ ./internal/intra/ ./internal/codec/
	$(GO) test -run '^$$' -bench 'Decode(Layer|Stack)(CABAC|RANS)' -benchtime=200x .

# Parent-vs-working-tree A/B of the repository benchmark, the procedure any
# gain claim is held to: ten alternating pairs per workload, medians,
# quartiles and win counts per end-to-end metric. About an hour for all five
# workloads; call scripts/bench_ab.sh directly to run fewer pairs or workloads.
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<ref>"; exit 2; }
	bash scripts/bench_ab.sh $(PARENT)

# Parent-vs-working-tree A/B of the printed figures, the check a refactor
# above the codec is held to: `cmd/experiments -quick`, the inference,
# generation, training and codecstudy examples and a 60-step pipeline-parallel trainsim run
# on REV and on this checkout, diffed with wall-clock readings stripped;
# non-zero on any difference. About 15 minutes, so not in ci.
figures-diff:
	@test -n "$(REV)" || { echo "usage: make figures-diff REV=<ref>"; exit 2; }
	bash scripts/figures_diff.sh $(REV)

# Serial vs parallel engine throughput on a multi-layer stack.
bench-parallel:
	$(GO) test -bench='(Encode|Decode)Stack(Serial|Parallel)' -benchtime=3x .

# Non-test Go lines (`wc -l`) per internal/* and cmd/* package, then the
# repo-wide total (examples and the root included; the nested benchmark
# module is not) — the figures the simplicity PRs report in CHANGES.md. What
# keeps the count from drifting back up is `make surface`'s
# TestProductionSurfaceIsClosed: code no main reaches does not stay.
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d  %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%6d  total\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l)"
