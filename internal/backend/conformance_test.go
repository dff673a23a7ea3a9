package backend

import (
	"testing"

	"seneca/internal/graph"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// conformanceTolerance is the documented per-backend accuracy contract:
// the maximum fraction of pixels whose label may differ from the reference
// INT8 execution. Every registered kind MUST have an entry — the suite
// fails the moment a new executor registers without declaring its
// tolerance. All current backends execute the quantized graph through the
// same quant executor, so their tolerance is exactly zero (bit-identical
// masks); a future approximate executor (e.g. a pruned or FP16 variant)
// would register a nonzero bound here and document why.
var conformanceTolerance = map[string]float64{
	KindCPUInt8: 0,
	KindDPUSim:  0,
	KindGPUSim:  0,
}

// mixedTestProgram compiles the conformance U-Net with a per-layer
// precision mix — INT4, INT8 and FP32-fallback convolutions in rotation —
// calibrated with PTQ on the given slices.
func mixedTestProgram(t *testing.T, size int, calib []*tensor.Tensor) *xmodel.Program {
	t.Helper()
	cfg := unet.Config{Name: "tiny-mixed", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 2}
	g := unet.New(cfg).Export(size, size)
	folded, err := quant.Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	qc := &quant.QConfig{Layers: map[string]int{}}
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			qc.Layers[n.Name] = []int{quant.Bits4, quant.Bits8, quant.BitsFP32}[len(qc.Layers)%3]
		}
	}
	q, err := quant.PTQ(g, calib, quant.Options{Config: qc})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestConformanceAllBackends runs the synthetic phantom slice set through
// every registered backend and holds each one to its declared tolerance
// against the reference path (the quantized graph executed directly), for a
// uniform INT8 program and a mixed INT4/INT8/FP32 one.
func TestConformanceAllBackends(t *testing.T) {
	const size = 32
	dev, prog := testProgram(t, size)
	imgs := phantomImages(t, size)
	if len(imgs) == 0 {
		t.Fatal("phantom set is empty")
	}
	programs := []struct {
		name string
		prog *xmodel.Program
		ref  [][]uint8
	}{
		{name: "int8", prog: prog},
		{name: "mixed", prog: mixedTestProgram(t, size, imgs)},
	}

	// Reference: the bit-accurate execution of each compiled graph.
	for p := range programs {
		for _, img := range imgs {
			ref, err := programs[p].prog.Graph.ExecuteLabels(img)
			if err != nil {
				t.Fatal(err)
			}
			programs[p].ref = append(programs[p].ref, ref)
		}
	}

	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			tol, ok := conformanceTolerance[kind]
			if !ok {
				t.Fatalf("backend kind %q has no conformance tolerance entry; every registered executor must declare one", kind)
			}
			for _, p := range programs {
				be, err := New(kind, dev, p.prog, Options{Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				masks, rep, err := be.Execute(imgs, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(masks) != len(imgs) {
					t.Fatalf("%s: %d masks for %d images", p.name, len(masks), len(imgs))
				}
				if rep.Frames != len(imgs) || rep.Duration <= 0 || rep.Joules <= 0 {
					t.Fatalf("%s: degenerate report %+v", p.name, rep)
				}
				ref := p.ref
				for i := range masks {
					if len(masks[i]) != len(ref[i]) {
						t.Fatalf("%s frame %d: mask length %d, want %d", p.name, i, len(masks[i]), len(ref[i]))
					}
					diff := 0
					for j := range ref[i] {
						if masks[i][j] != ref[i][j] {
							diff++
						}
					}
					frac := float64(diff) / float64(len(ref[i]))
					if frac > tol {
						t.Fatalf("%s frame %d: %d/%d pixels (%.4f) differ from the reference path, tolerance %.4f",
							p.name, i, diff, len(ref[i]), frac, tol)
					}
				}
			}
		})
	}
}

// TestConformanceDeterministic pins that a backend's Execute is a pure
// function of its inputs at seed 0: two runs agree bit for bit (the chaos
// suite's failover assertions lean on this).
func TestConformanceDeterministic(t *testing.T) {
	const size = 16
	dev, prog := testProgram(t, size)
	imgs := randomImages(size, 4, 11)
	for _, kind := range Kinds() {
		be, err := New(kind, dev, prog, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		a, repA, err := be.Execute(imgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, repB, err := be.Execute(imgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: frame %d diverges between identical runs at %d", kind, i, j)
				}
			}
		}
		if repA.Duration != repB.Duration || repA.Joules != repB.Joules {
			t.Fatalf("%s: seed-0 reports differ: %+v vs %+v", kind, repA, repB)
		}
	}
}
