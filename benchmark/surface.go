package main

// surface.go is the benchmark's one import surface: every call from the
// benchmark into repro/internal/* goes through a name declared here, so a
// refactor that renames one of them (ROADMAP item 2) breaks exactly this file.
// The rule (README.md, "Import surface"): such a refactor either keeps the
// symbol or is preceded by its own benchmark issue re-pointing this file.
//
// Methods the benchmark calls on the types below and on what the
// constructors return:
//
//	core.Options    EncodeStackCtx, DecodeStackCtx, DecodeLayerCtx
//	core.Encoded    Marshal, BitsPerValue, Stream
//	serve.Server    Handler, KV
//	proxy.Proxy     Start, Close, Handler
//	kv.Table        Append, Read, Delete, Resident
//	store.Store     Pack, Fetch, OpenModel      store.Model  Layer, Stats
//	allreduce.Ring  Allreduce, AdvanceStep
//	dct.Transform   Forward, Inverse            intra.Refs   SmoothedInto
//	cabac.Encoder   EncodeBit, Finish           cabac.Decoder DecodeBit
//	codec.Appender  Append
//	obs.Registry    Snapshot

import (
	"repro/internal/allreduce"
	"repro/internal/cabac"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/quant"
	"repro/internal/rans"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensorgen"
)

type (
	coreOptions = core.Options
	coreTensor  = core.Tensor
	coreEncoded = core.Encoded

	codecPlaneRegion = codec.PlaneRegion
	framePlane       = frame.Plane

	serveConfig = serve.Config
	serveServer = serve.Server
	proxyConfig = proxy.Config
	proxyProxy  = proxy.Proxy

	kvConfig = kv.Config
	kvTable  = kv.Table

	storeStore     = store.Store
	storeModel     = store.Model
	storePackEntry = store.PackEntry

	ringConfig = allreduce.Config
	ring       = allreduce.Ring
	ringStats  = allreduce.Stats

	intraMode    = intra.Mode
	cabacContext = cabac.Context

	obsRegistry = obs.Registry
)

var (
	coreDefaultOptions   = core.DefaultOptions
	coreFromSlice        = core.FromSlice
	coreUnmarshalEncoded = core.UnmarshalEncoded

	codecEncodeIndexedCtx = codec.EncodeIndexedCtx
	codecDecodeWorkersCtx = codec.DecodeWorkersCtx
	codecDecodeRegionCtx  = codec.DecodeRegionCtx
	codecNewAppender      = codec.NewAppender
	codecHEVC             = codec.HEVC
	codecAllTools         = codec.AllTools

	serveNew = serve.New
	proxyNew = proxy.New
	kvNew    = kv.New

	storeOpen = store.Open

	ringNew         = allreduce.New
	ringTensorCodec = allreduce.TensorCodec
	ringRawCodec    = allreduce.RawCodec

	dctNewDCT     = dct.NewDCT
	dctQuantize   = dct.Quantize
	dctDequantize = dct.Dequantize
	dctSATD       = dct.SATD

	intraPredict = intra.Predict
	intraNewRefs = intra.NewRefs

	cabacNewContext = cabac.NewContext
	cabacNewEncoder = cabac.NewEncoder
	cabacNewDecoder = cabac.NewDecoder

	ransNormalizeFreqs = rans.NormalizeFreqs
	ransEncodeBytes    = rans.EncodeBytes
	ransDecodeBytes    = rans.DecodeBytes

	quantToUint8    = quant.ToUint8
	quantFromUint8  = quant.FromUint8
	frameFromMatrix = frame.FromMatrix
	frameToMatrix   = frame.ToMatrix

	genWeights     = tensorgen.Weights
	genWeightStack = tensorgen.WeightStack
	genActivations = tensorgen.Activations
	genGradients   = tensorgen.Gradients

	obsNewRegistry = obs.NewRegistry
)

const (
	backendRANS = codec.BackendRANS

	intraPlanar  = intra.Planar
	intraDC      = intra.DC
	intraAngular = intraMode(30) // an oblique angular mode: exercises the interpolating path
)

var errKVBudget = kv.ErrBudget
