// Worker-count determinism: every numeric kernel in this repository must
// produce bit-identical results no matter how many goroutines internal/par
// hands it. The INT8 path is exact integer arithmetic partitioned over
// disjoint output regions; the FP32 path fixes each output element's
// accumulation order regardless of how the index space is chunked. These
// tests sweep par.SetMaxWorkers across 1..2·NumCPU and compare everything
// against the serial run.
package seneca_test

import (
	"runtime"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// testGraph exports the named U-Net at size×size, shallowed until the
// bottleneck keeps at least two pixels.
func testGraph(t *testing.T, name string, size int) *graph.Graph {
	t.Helper()
	cfg, err := unet.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for (1 << (cfg.Depth + 1)) > size {
		cfg.Depth--
	}
	return unet.New(cfg).Export(size, size)
}

func testProgram(t *testing.T, name string, size int) *xmodel.Program {
	t.Helper()
	q, err := quant.QuantizeShapeOnly(testGraph(t, name, size))
	if err != nil {
		t.Fatal(err)
	}
	p, err := xmodel.Compile(q, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// precisionProgram compiles the named U-Net with PTQ on seeded noise
// slices, giving the i-th convolution of the folded graph (topological
// order) the bitwidth bitsFor(i).
func precisionProgram(t *testing.T, name string, size int, bitsFor func(i int) int) *xmodel.Program {
	t.Helper()
	g := testGraph(t, name, size)
	folded, err := quant.Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	qc := &quant.QConfig{Layers: map[string]int{}}
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			qc.Layers[n.Name] = bitsFor(len(qc.Layers))
		}
	}
	calib := []*tensor.Tensor{randomImage(size, 1), randomImage(size, 2)}
	q, err := quant.PTQ(g, calib, quant.Options{Config: qc})
	if err != nil {
		t.Fatal(err)
	}
	p, err := xmodel.Compile(q, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sweepWorkers runs body under worker caps 1..2·NumCPU (at least 4, so
// single-core hosts still exercise multi-goroutine chunking) and restores
// the previous cap afterwards.
func sweepWorkers(t *testing.T, body func(workers int)) {
	t.Helper()
	max := 2 * runtime.NumCPU()
	if max < 4 {
		max = 4
	}
	prev := par.MaxWorkers()
	defer par.SetMaxWorkers(prev)
	for w := 1; w <= max; w++ {
		par.SetMaxWorkers(w)
		body(w)
	}
}

// TestINT8MaskBitIdenticalAcrossWorkerCounts sweeps the integer engine over
// three precision mixes: uniform INT8, all-INT4 (the tiled kernels with the
// 4-bit clamp) and a mixed INT4/INT8/FP32 program.
func TestINT8MaskBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bitsFor func(i int) int // nil: uniform INT8, shape-only quantized
	}{
		{"int8", nil},
		{"int4", func(int) int { return quant.Bits4 }},
		{"mixed", func(i int) int { return []int{quant.Bits4, quant.Bits8, quant.BitsFP32}[i%3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := testProgram(t, "1M", 32)
			if tc.bitsFor != nil {
				prog = precisionProgram(t, "1M", 32, tc.bitsFor)
			}
			img := randomImage(32, 7)
			prev := par.SetMaxWorkers(1)
			defer par.SetMaxWorkers(prev)
			want, err := prog.Run(img)
			if err != nil {
				t.Fatal(err)
			}
			sweepWorkers(t, func(workers int) {
				got, err := prog.Run(img)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: mask diverges from serial run at pixel %d: %d vs %d", workers, i, got[i], want[i])
					}
				}
			})
		})
	}
}

func TestFP32ForwardBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Depth = 2
	m := unet.New(cfg)
	x := randomImage(32, 8).Reshape(1, 1, 32, 32)
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	want := m.Forward(x, false).Clone()
	sweepWorkers(t, func(workers int) {
		got := m.Forward(x, false)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: FP32 forward diverges from serial run at %d: %v vs %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	})
}

// TestMatMulVariantsBitIdenticalAcrossWorkerCounts pins the three GEMM
// kernels directly: the blocked inner loops fix each output element's
// accumulation order, so chunking the row space differently must not move a
// single bit.
func TestMatMulVariantsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const m, k, n = 37, 53, 29
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	at := tensor.New(k, m)
	bt := tensor.New(n, k)
	fill := func(ts *tensor.Tensor, seed float32) {
		for i := range ts.Data {
			ts.Data[i] = seed * float32(i%17-8) / float32(i%11+1)
		}
	}
	fill(a, 0.3)
	fill(b, -0.7)
	fill(at, 1.1)
	fill(bt, 0.9)
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	wantAB := tensor.New(m, n)
	wantAT := tensor.New(m, n)
	wantBT := tensor.New(m, n)
	tensor.MatMulInto(wantAB, a, b)
	tensor.MatMulATInto(wantAT, at, b)
	tensor.MatMulBTInto(wantBT, a, bt)
	got := tensor.New(m, n)
	check := func(workers int, name string, want *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: %s diverges from serial run at %d: %v vs %v", workers, name, i, got.Data[i], want.Data[i])
			}
		}
	}
	sweepWorkers(t, func(workers int) {
		tensor.MatMulInto(got, a, b)
		check(workers, "MatMulInto", wantAB)
		tensor.MatMulATInto(got, at, b)
		check(workers, "MatMulATInto", wantAT)
		tensor.MatMulBTInto(got, a, bt)
		check(workers, "MatMulBTInto", wantBT)
	})
}
