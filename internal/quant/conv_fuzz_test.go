package quant

import (
	"math/rand"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/tensor"
)

// intConvCase is one randomized integer convolution layer: geometry,
// precision and write-back parameters, plus its input codes and weights.
type intConvCase struct {
	transpose              bool
	bits                   int
	c, h, w, outC          int
	k, stride, pad, oh, ow int
	shift, shift2          int
	relu                   bool
	src, weight            []int8
	bias                   []int32
}

// newIntConvCase derives a case from seed. The low bits pick the operator,
// kernel size, stride and bitwidth round-robin, so any 32 consecutive seeds
// cover K ∈ {1,3,5,7} × stride ∈ {1,2} × {INT8, INT4} for both convolution
// and transpose convolution; the rest comes from a generator seeded by seed.
// Only INT8 layers get a store-target second shift: the compiler never
// fuses INT4 producers into a concat.
func newIntConvCase(seed int64) intConvCase {
	s := uint64(seed)
	tc := intConvCase{
		transpose: s%2 == 1,
		k:         []int{1, 3, 5, 7}[(s/2)%4],
		stride:    1 + int((s/8)%2),
		bits:      []int{Bits8, Bits4}[(s/16)%2],
	}
	rng := rand.New(rand.NewSource(seed))
	tc.pad = rng.Intn(tc.k/2 + 1)
	tc.outC = 1 + rng.Intn(13)
	tc.c = 1 + rng.Intn(6)
	if rng.Intn(4) == 0 {
		tc.c = 1 + rng.Intn(40) // deep enough to cross the tri-lane spill
	}
	if tc.transpose {
		tc.h, tc.w = 1+rng.Intn(8), 1+rng.Intn(8)
		tc.oh = (tc.h-1)*tc.stride - 2*tc.pad + tc.k
		tc.ow = (tc.w-1)*tc.stride - 2*tc.pad + tc.k
	} else {
		lo := tc.k - 2*tc.pad
		if lo < 1 {
			lo = 1
		}
		tc.h, tc.w = lo+rng.Intn(12), lo+rng.Intn(12)
		tc.oh = (tc.h+2*tc.pad-tc.k)/tc.stride + 1
		tc.ow = (tc.w+2*tc.pad-tc.k)/tc.stride + 1
	}
	tc.shift = rng.Intn(12) - 1
	if tc.bits == Bits8 {
		tc.shift2 = rng.Intn(3)
	}
	tc.relu = rng.Intn(2) == 1
	tc.src = make([]int8, tc.c*tc.h*tc.w)
	for i := range tc.src {
		tc.src[i] = int8(rng.Intn(256) - 128)
	}
	qmax := int(QMaxBits(tc.bits))
	tc.weight = make([]int8, tc.c*tc.outC*tc.k*tc.k)
	for i := range tc.weight {
		tc.weight[i] = int8(rng.Intn(2*qmax+2) - qmax - 1)
	}
	tc.bias = make([]int32, tc.outC)
	for i := range tc.bias {
		tc.bias[i] = int32(rng.Intn(1<<16) - 1<<15)
	}
	return tc
}

// execute runs the case as a one-layer graph through an Executor, so the
// kernel under test is whichever one the executor dispatches to. The input
// sits at fix position 0 (float codes quantize to themselves), and the
// layer's fix positions are chosen so the requantization shift is tc.shift.
func (tc intConvCase) execute(t *testing.T) []int8 {
	t.Helper()
	kind := graph.KindConv
	if tc.transpose {
		kind = graph.KindConvTranspose
	}
	bits := tc.bits
	if bits == Bits8 {
		bits = 0
	}
	q := &QGraph{
		Nodes: []*QNode{
			{Name: "in", Kind: graph.KindInput, OutShape: [3]int{tc.c, tc.h, tc.w}},
			{
				Name: "conv", Kind: kind, Inputs: []string{"in"},
				Kernel: tc.k, Stride: tc.stride, Pad: tc.pad, InC: tc.c, OutC: tc.outC,
				Weight: tc.weight, WeightFP: FixPos(tc.shift), Bias: tc.bias, Bits: bits,
				FusedReLU: tc.relu, StoreShift: tc.shift2,
				OutShape: [3]int{tc.outC, tc.oh, tc.ow},
			},
		},
		InputName: "in", OutputName: "conv",
		InC: tc.c, InH: tc.h, InW: tc.w,
	}
	q.RebuildIndex()
	e, err := NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(tc.c, tc.h, tc.w)
	for i, v := range tc.src {
		img.Data[i] = float32(v)
	}
	if err := e.run(img, nil); err != nil {
		t.Fatal(err)
	}
	return e.acts["conv"].data
}

// reference computes the case with the lowbit.go reference kernels at the
// layer's own bitwidth, store-target second shift included.
func (tc intConvCase) reference() []int8 {
	dst := make([]int8, tc.outC*tc.oh*tc.ow)
	if tc.transpose {
		convTransposeIntRef(tc.src, tc.c, tc.h, tc.w, tc.weight, tc.bias, tc.outC, tc.k, tc.stride, tc.pad, tc.shift, tc.shift2, tc.relu, tc.bits, dst, tc.oh, tc.ow)
	} else {
		convIntRef(tc.src, tc.c, tc.h, tc.w, tc.weight, tc.bias, tc.outC, tc.k, tc.stride, tc.pad, tc.shift, tc.shift2, tc.relu, tc.bits, dst, tc.oh, tc.ow)
	}
	return dst
}

// FuzzIntConv is the differential guard over the integer convolution
// engine: for any layer geometry, bitwidth and write-back setting, the
// kernel the executor picks must reproduce the reference kernels bit for
// bit. `go test` replays the seed corpus below; `make fuzz` explores
// further seeds.
func FuzzIntConv(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tc := newIntConvCase(seed)
		got, want := tc.execute(t), tc.reference()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (transpose=%v bits=%d c=%d %dx%d outC=%d k=%d stride=%d pad=%d shift=%d shift2=%d relu=%v): output %d = %d, reference %d",
					seed, tc.transpose, tc.bits, tc.c, tc.h, tc.w, tc.outC, tc.k, tc.stride, tc.pad, tc.shift, tc.shift2, tc.relu, i, got[i], want[i])
			}
		}
	})
}
