package quant

import (
	"math"
	"math/rand"
	"testing"
)

// refConvInt8 is a direct (unoptimized) int8 convolution, written
// independently of both the packed kernels and the lowbit.go reference
// kernels, that validates them.
func refConvInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift int, relu bool, oh, ow int) []int8 {
	out := make([]int8, outC*oh*ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int64
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy := oy*stride - pad + ky
							ix := ox*stride - pad + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							wv := weight[((oc*c+ic)*k+ky)*k+kx]
							acc += int64(wv) * int64(src[(ic*h+iy)*w+ix])
						}
					}
				}
				acc += int64(bias[oc])
				if relu && acc < 0 {
					acc = 0
				}
				out[(oc*oh+oy)*ow+ox] = RoundShift(acc, shift)
			}
		}
	}
	return out
}

func TestConvInt8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, h, w := 3, 7, 9
	outC, k, stride, pad := 4, 3, 1, 1
	src := make([]int8, c*h*w)
	for i := range src {
		src[i] = int8(rng.Intn(256) - 128)
	}
	weight := make([]int8, outC*c*k*k)
	for i := range weight {
		weight[i] = int8(rng.Intn(256) - 128)
	}
	bias := []int32{100, -50, 0, 7}
	oh, ow := h, w
	packed, wCorr := packConvWeights(weight, outC, c*k*k)
	for _, relu := range []bool{false, true} {
		for _, shift := range []int{0, 3, 7} {
			want := refConvInt8(src, c, h, w, weight, bias, outC, k, stride, pad, shift, relu, oh, ow)
			// The packed tri-lane kernel and the reference fallback at 8 bits
			// must both reproduce the reference bit for bit.
			for _, packedPath := range []bool{true, false} {
				got := make([]int8, outC*oh*ow)
				if packedPath {
					convInt8(src, c, h, w, packed, wCorr, bias, outC, k, pad, shift, 0, relu, got, oh, ow, new(convScratch))
				} else {
					convIntRef(src, c, h, w, weight, bias, outC, k, stride, pad, shift, 0, relu, Bits8, got, oh, ow)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("relu=%v shift=%d packed=%v: pixel %d: %d vs %d", relu, shift, packedPath, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConvInt8OddChannels exercises the trailing-pair path where the high
// lane of the last packed pair is a phantom channel.
func TestConvInt8OddChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, outC := range []int{1, 2, 3, 5, 7, 9} {
		c, h, w, k, stride, pad := 2, 5, 5, 3, 1, 1
		src := make([]int8, c*h*w)
		for i := range src {
			src[i] = int8(rng.Intn(256) - 128)
		}
		weight := make([]int8, outC*c*k*k)
		for i := range weight {
			weight[i] = int8(rng.Intn(256) - 128)
		}
		bias := make([]int32, outC)
		for i := range bias {
			bias[i] = int32(rng.Intn(201) - 100)
		}
		oh, ow := h, w
		want := refConvInt8(src, c, h, w, weight, bias, outC, k, stride, pad, 5, true, oh, ow)
		packed, wCorr := packConvWeights(weight, outC, c*k*k)
		got := make([]int8, outC*oh*ow)
		convInt8(src, c, h, w, packed, wCorr, bias, outC, k, pad, 5, 0, true, got, oh, ow, new(convScratch))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("outC=%d: pixel %d: %d vs %d", outC, i, got[i], want[i])
			}
		}
	}
}

func TestConvTransposeInt8IsAdjointShape(t *testing.T) {
	// 2× upsampling geometry: 4×4 → 8×8 must populate the full output.
	rng := rand.New(rand.NewSource(2))
	c, h, w, outC, k, stride, pad := 2, 4, 4, 3, 3, 2, 1
	oh, ow := 8, 8
	src := make([]int8, c*h*w)
	for i := range src {
		src[i] = int8(rng.Intn(101) - 50)
	}
	weight := make([]int8, c*outC*k*k)
	for i := range weight {
		weight[i] = int8(rng.Intn(101) - 50)
	}
	bias := make([]int32, outC)
	dst := make([]int8, outC*oh*ow)
	packed, wCorr := packDconvWeights(weight, c, outC*k*k)
	convTransposeInt8(src, c, h, w, packed, wCorr, bias, outC, k, stride, pad, 4, 0, false, dst, oh, ow,
		make([]uint8, c*h*w), make([]int32, h*w), make([]int32, outC*k*k*h*w), make([]int32, roundUp4(outC)*oh*ow))
	var nonzero int
	for _, v := range dst {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(dst)/4 {
		t.Fatalf("transpose conv left most of the output empty: %d/%d nonzero", nonzero, len(dst))
	}
}

// TestConvTransposeInt8MatchesFloat compares the INT8 transpose conv with
// shift 0 against exact integer arithmetic done in float64.
func TestConvTransposeInt8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, h, w, outC, k, stride, pad := 2, 3, 3, 2, 3, 2, 1
	oh, ow := 6, 6
	src := make([]int8, c*h*w)
	for i := range src {
		src[i] = int8(rng.Intn(11) - 5)
	}
	weight := make([]int8, c*outC*k*k)
	for i := range weight {
		weight[i] = int8(rng.Intn(11) - 5)
	}
	bias := []int32{3, -2}
	// Exact reference: out[oc, py, px] = Σ_ic Σ_k src[ic,iy,ix]·W[ic,oc,ky,kx]
	ref := make([]float64, outC*oh*ow)
	for ic := 0; ic < c; ic++ {
		for oc := 0; oc < outC; oc++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							py := iy*stride - pad + ky
							px := ix*stride - pad + kx
							if py < 0 || py >= oh || px < 0 || px >= ow {
								continue
							}
							ref[(oc*oh+py)*ow+px] += float64(src[(ic*h+iy)*w+ix]) * float64(weight[((ic*outC+oc)*k+ky)*k+kx])
						}
					}
				}
			}
		}
	}
	packed, wCorr := packDconvWeights(weight, c, outC*k*k)
	// The packed tri-lane GEMM and the reference fallback at 8 bits must
	// agree with the exact reference.
	for _, packedPath := range []bool{true, false} {
		dst := make([]int8, outC*oh*ow)
		if packedPath {
			convTransposeInt8(src, c, h, w, packed, wCorr, bias, outC, k, stride, pad, 0, 0, false, dst, oh, ow,
				make([]uint8, c*h*w), make([]int32, h*w), make([]int32, outC*k*k*h*w), make([]int32, roundUp4(outC)*oh*ow))
		} else {
			convTransposeIntRef(src, c, h, w, weight, bias, outC, k, stride, pad, 0, 0, false, Bits8, dst, oh, ow)
		}
		checkTransposeAgainstRef(t, dst, ref, bias, outC, oh, ow, packedPath)
	}
}

func checkTransposeAgainstRef(t *testing.T, dst []int8, ref []float64, bias []int32, outC, oh, ow int, packed bool) {
	t.Helper()
	for i := range dst {
		want := ref[i] + float64(bias[i/(oh*ow)])
		if want > 127 {
			want = 127
		}
		if want < -128 {
			want = -128
		}
		if math.Abs(float64(dst[i])-want) > 0.5 {
			t.Fatalf("packed=%v: pixel %d: %d vs %v", packed, i, dst[i], want)
		}
	}
}

func TestMaxPoolInt8(t *testing.T) {
	src := []int8{
		1, 2, 3, 4,
		5, 6, 7, 8,
		-1, -2, -3, -4,
		-5, -6, -7, -8,
	}
	dst := make([]int8, 4)
	maxPoolInt8(src, 1, 4, 4, 0, dst)
	want := []int8{6, 8, -1, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("pool[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	// Fused requantization: shift 1 halves (round half away) in the same pass.
	maxPoolInt8(src, 1, 4, 4, 1, dst)
	for i, w := range []int8{3, 4, -1, -2} {
		if dst[i] != w {
			t.Fatalf("pool-shift[%d] = %d, want %d", i, dst[i], w)
		}
	}
}

func TestReluInt8AndRequant(t *testing.T) {
	src := []int8{-5, 0, 5, 127}
	dst := make([]int8, 4)
	reluInt8(src, 0, dst)
	for i, w := range []int8{0, 0, 5, 127} {
		if dst[i] != w {
			t.Fatalf("relu[%d] = %d, want %d", i, dst[i], w)
		}
	}
	reluInt8(src, 1, dst) // shift right by 1 after relu
	for i, w := range []int8{0, 0, 3, 64} {
		if dst[i] != w {
			t.Fatalf("relu-shift[%d] = %d, want %d", i, dst[i], w)
		}
	}
	requantInt8(src, 1, dst)
	for i, w := range []int8{-3, 0, 3, 64} {
		if dst[i] != w {
			t.Fatalf("requant[%d] = %d, want %d", i, dst[i], w)
		}
	}
	requantInt8(src, 0, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("requant shift 0 must copy")
		}
	}
}

func TestArgmaxChannelsInt8(t *testing.T) {
	// 2 channels, 3 pixels: [ch0: 1, 5, -1], [ch1: 2, 4, -3].
	src := []int8{1, 5, -1, 2, 4, -3}
	got := argmaxChannelsInt8(src, 2, 3)
	want := []uint8{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("argmax[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
