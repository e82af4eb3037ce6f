package codec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// TestEncodeEquivalenceMatrix is the one-table differential contract over
// the whole config space: for each workload, every value of the fields that
// must not matter — Workers {1,2,4,8} × Metrics nil/live × ctx
// Background/cancellable-never-fired — produces byte-identical streams per
// Container, and the same sweep over DecodeConfig reproduces identical
// planes. Across containers the payload is the same too: the indexed stream
// is its un-indexed twin plus a trailer, and all three decode to the same
// planes. Workloads are the awkward shapes plus every golden vector, whose
// sweep must additionally land on the committed bytes of its pinned
// container.
func TestEncodeEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	constPlane := func(w, h int, v uint8) *frame.Plane {
		p := frame.NewPlane(w, h)
		for i := range p.Pix {
			p.Pix[i] = v
		}
		return p
	}
	manyPlanes := func(n, w, h int) []*frame.Plane {
		ps := make([]*frame.Plane, n)
		for i := range ps {
			ps[i] = gradientPlane(rng, w, h)
		}
		return ps
	}

	type workload struct {
		name       string
		qp         int
		prof       Profile
		tools      Tools
		planes     []*frame.Plane
		containers []Container
		pinned     []byte // committed bytes of containers[0]; nil = unpinned
	}
	all := []Container{ContainerLegacy, ContainerV3, ContainerV3Indexed}
	var cases []workload
	for _, shape := range []struct {
		name   string
		planes []*frame.Plane
	}{
		{"1x1", []*frame.Plane{gradientPlane(rng, 1, 1)}},
		{"1xN", []*frame.Plane{gradientPlane(rng, 1, 53)}},
		{"Nx1", []*frame.Plane{gradientPlane(rng, 53, 1)}},
		{"prime-31x29", []*frame.Plane{gradientPlane(rng, 31, 29)}},
		{"constant-64x64", []*frame.Plane{constPlane(64, 64, 131)}},
		{"multi-chunk-6x128x128", manyPlanes(6, 128, 128)},
	} {
		cases = append(cases, workload{shape.name, 26, HEVC, AllTools, shape.planes, all, nil})
	}
	for _, v := range goldenVectors() {
		pinned, err := os.ReadFile(goldenStreamPath(v.name))
		if err != nil {
			t.Fatalf("missing golden stream (run TestGoldenConformance -update): %v", err)
		}
		cases = append(cases, workload{v.name, v.qp, v.prof, v.tools, v.planes(), []Container{v.container}, pinned})
	}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxs := []context.Context{context.Background(), live}
	registries := func() []*obs.Registry { return []*obs.Registry{nil, obs.NewRegistry()} }

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streams := map[Container][]byte{}
			var refDec []*frame.Plane
			for _, container := range tc.containers {
				ref := tc.pinned
				for _, workers := range []int{1, 2, 4, 8} {
					for _, reg := range registries() {
						for ci, ctx := range ctxs {
							label := fmt.Sprintf("container=%d workers=%d metrics=%v ctx=%d", container, workers, reg != nil, ci)
							data, _, _, err := Encode(ctx, tc.planes, EncodeConfig{
								QP: tc.qp, Profile: tc.prof, Tools: tc.tools,
								Workers: workers, Metrics: reg, Container: container})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if ref == nil {
								ref = data
							}
							if !bytes.Equal(data, ref) {
								t.Fatalf("%s: bytes differ from the reference (first diff at %d)", label, firstDiff(data, ref))
							}
						}
					}
				}
				streams[container] = ref

				// The same sweep over DecodeConfig reproduces identical planes
				// — across containers too.
				for _, workers := range []int{1, 2, 8} {
					for _, reg := range registries() {
						for ci, ctx := range ctxs {
							label := fmt.Sprintf("decode container=%d workers=%d metrics=%v ctx=%d", container, workers, reg != nil, ci)
							dec, err := Decode(ctx, ref, DecodeConfig{Workers: workers, Metrics: reg})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if refDec == nil {
								refDec = dec.Planes
								for i, p := range refDec {
									if p.W != tc.planes[i].W || p.H != tc.planes[i].H {
										t.Fatalf("plane %d decoded to %dx%d, want %dx%d",
											i, p.W, p.H, tc.planes[i].W, tc.planes[i].H)
									}
								}
							}
							requirePlanesEqual(t, label, dec.Planes, refDec)
						}
					}
				}
			}
			if indexed, ok := streams[ContainerV3Indexed]; ok {
				v3 := streams[ContainerV3]
				if len(indexed) <= len(v3) || !bytes.Equal(indexed[:len(v3)], v3) {
					t.Error("indexed container is not its un-indexed twin plus a trailer")
				}
			}
		})
	}
}
