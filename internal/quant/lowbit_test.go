package quant

import (
	"math/rand"
	"reflect"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
	"seneca/internal/tensor"
)

// convNames returns the convolution layer names of the folded graph in
// topological order.
func convNames(t *testing.T, g *graph.Graph) []string {
	t.Helper()
	folded, err := Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			names = append(names, n.Name)
		}
	}
	return names
}

func probeImage(seed int64) *tensor.Tensor {
	probe := tensor.New(1, 16, 16)
	rng := rand.New(rand.NewSource(seed))
	for i := range probe.Data {
		probe.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	return probe
}

// TestQConfigINT4Layer quantizes one layer to INT4 and checks the
// narrow-precision invariants: 4-bit weight codes, a 4-bit output grid and
// a well-formed mask from the mixed-precision executor.
func TestQConfigINT4Layer(t *testing.T) {
	_, g, calib := buildTestModel(t)
	names := convNames(t, g)
	layer := names[len(names)/2]
	q, err := PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{layer: Bits4}}})
	if err != nil {
		t.Fatal(err)
	}
	n := q.Node(layer)
	if n == nil || n.Bits != Bits4 {
		t.Fatalf("layer %q not marked INT4 (bits %d)", layer, n.Bits)
	}
	for i, w := range n.Weight {
		if w < -8 || w > 7 {
			t.Fatalf("weight[%d] = %d outside the INT4 range", i, w)
		}
	}
	labels, err := q.ExecuteLabels(probeImage(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 16*16 {
		t.Fatalf("mask has %d pixels, want %d", len(labels), 16*16)
	}
	for i, c := range labels {
		if int(c) >= q.NumClasses {
			t.Fatalf("pixel %d: class %d out of range (%d classes)", i, c, q.NumClasses)
		}
	}
}

// TestQConfigFP32Fallback keeps every convolution in float and checks that
// the fallback path agrees with the FP32 model at least as well as uniform
// INT8 does — the whole point of falling back.
func TestQConfigFP32Fallback(t *testing.T) {
	m, g, calib := buildTestModel(t)
	q8, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q32, err := PTQ(g, calib, Options{Config: &QConfig{DefaultBits: BitsFP32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range q32.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			if n.Bits != BitsFP32 || n.Weight != nil || n.WeightF == nil {
				t.Fatalf("node %q: not an FP32 fallback (bits %d)", n.Name, n.Bits)
			}
		}
	}
	probe := probeImage(77)
	ref := m.Predict(probe.Reshape(1, 1, 16, 16))
	agree := func(q *QGraph) float64 {
		labels, err := q.ExecuteLabels(probe)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i, c := range labels {
			if c == ref[i] {
				same++
			}
		}
		return float64(same) / float64(len(labels))
	}
	a8, a32 := agree(q8), agree(q32)
	if a32+0.02 < a8 {
		t.Errorf("FP32 fallback agreement %.3f worse than INT8 %.3f", a32, a8)
	}
	if a32 < 0.85 {
		t.Errorf("FP32 fallback agreement %.3f with the FP32 model is too low", a32)
	}
}

// TestMixedPrecisionDeterministic pins a mixed-precision graph (INT4 and
// FP32 layers) to be bit-identical across runs and worker-pool sizes: INT4
// layers run the tiled integer kernels, whose tiles depend only on the node,
// and the FP32 reference kernels parallelize over output channels only, so
// the accumulation order never changes.
func TestMixedPrecisionDeterministic(t *testing.T) {
	_, g, calib := buildTestModel(t)
	names := convNames(t, g)
	cfg := &QConfig{Layers: map[string]int{
		names[0]:            BitsFP32,
		names[len(names)/2]: Bits4,
		names[len(names)-1]: Bits4,
	}}
	probe := probeImage(31)
	run := func() []uint8 {
		q, err := PTQ(g, calib, Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		labels, err := q.ExecuteLabels(probe)
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	base := run()
	for _, workers := range []int{1, 2, 8} {
		prev := par.SetMaxWorkers(workers)
		got := run()
		par.SetMaxWorkers(prev)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("mask changed with %d workers", workers)
		}
	}
}

// TestQConfigRejectsBadBits checks that an unsupported bitwidth fails
// loudly at quantization time instead of producing a half-converted graph.
func TestQConfigRejectsBadBits(t *testing.T) {
	_, g, calib := buildTestModel(t)
	_, err := PTQ(g, calib, Options{Config: &QConfig{DefaultBits: 5}})
	if err == nil {
		t.Fatal("bitwidth 5 accepted")
	}
	_, err = PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{"enc0.a.conv": 16}}})
	if err == nil {
		t.Fatal("bitwidth 16 accepted")
	}
}
