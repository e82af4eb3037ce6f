package codec

import (
	"context"

	"repro/internal/frame"
	"repro/internal/obs"
)

// The three names below exist only because benchmark/surface.go binds them
// and no file under benchmark/ may change in the PR that introduced Encode and
// Decode. Each is a single return into the real API; nothing else in the repo
// may call them (api_test.go enforces the allow-list), and they are deleted
// by the next benchmark issue, which re-points surface.go.

// EncodeIndexedCtx is Encode with ContainerV3Indexed.
func EncodeIndexedCtx(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, workers int, regions []PlaneRegion, reg *obs.Registry) ([]byte, Stats, error) {
	return streamOf(Encode(ctx, planes, EncodeConfig{QP: qp, Profile: prof, Tools: tools, Workers: workers, Metrics: reg, Container: ContainerV3Indexed, Regions: regions}))
}

// streamOf drops Encode's reconstruction: the wrapper keeps its bound shape.
func streamOf(data []byte, st Stats, _ []*frame.Plane, err error) ([]byte, Stats, error) {
	return data, st, err
}

// DecodeWorkersCtx is a strict, whole-stream Decode returning just the planes.
func DecodeWorkersCtx(ctx context.Context, data []byte, workers int, reg *obs.Registry) ([]*frame.Plane, error) {
	return planesOf(Decode(ctx, data, DecodeConfig{Workers: workers, Metrics: reg}))
}

// DecodeRegionCtx is a strict Decode of the plane window [first, first+count).
func DecodeRegionCtx(ctx context.Context, data []byte, first, count, workers int, reg *obs.Registry) ([]*frame.Plane, error) {
	return planesOf(Decode(ctx, data, DecodeConfig{Workers: workers, Metrics: reg, First: first, Count: count}))
}

// planesOf adapts Decode's result to the wrappers' plane-slice shape.
func planesOf(d *Decoded, err error) ([]*frame.Plane, error) {
	if err != nil {
		return nil, err
	}
	return d.Planes, nil
}
