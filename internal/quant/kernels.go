package quant

import (
	"encoding/binary"

	"seneca/internal/par"
	"seneca/internal/tensor"
)

// ceilDivInt returns ⌈a/b⌉ for b > 0 and any sign of a.
func ceilDivInt(a, b int) int {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// floorDivInt returns ⌊a/b⌋ for b > 0 and any sign of a.
func floorDivInt(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// clearInt32 zeroes an accumulator tile (compiled to a memclr).
func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}

// maxPackedCKK bounds C·K² for the tri-lane packed convolution kernels: the
// per-channel biased sum Σ(w+128)(x+128) must stay an exact int32, and
// 32768·255² < 2³¹ guarantees it (lane carries within a packed accumulator
// are prevented separately by the triChunk spill below). Deeper reductions
// run the lowbit.go reference kernels (see QNode.convPacked).
const maxPackedCKK = 1 << 15

// Tri-lane packing geometry: three output channels share one uint64 in
// 21-bit lanes at bit offsets 0, 21 and 42. A lane holds at most triChunk
// products of biased bytes (≤ 255·255), and 32·255² < 2²¹ means a lane can
// never carry into its neighbour within a chunk; chunks are spilled into
// int32 accumulators, which maxPackedCKK keeps exact.
const (
	triLaneMask = (1 << 21) - 1
	triChunk    = 32
)

// packConvWeights lowers a convolution weight matrix [OutC, C·K²] into the
// biased-unsigned tri-lane form used by convInt8: channel triple r stores
// uint64(w[3r][p]+128) | uint64(w[3r+1][p]+128)<<21 | uint64(w[3r+2][p]+128)<<42,
// so one 64-bit multiply by a biased activation byte yields three channels'
// products (the scalar integer multiplier retires one op per cycle
// regardless of width — packing triples its throughput). wCorr[oc] carries
// the zero-point correction 128²·C·K² − 128·Σ_p(w[oc][p]+128): the exact
// signed accumulator is recovered (mod 2³², matching int32 wraparound) as
//
//	acc = laneSum − rowSum[j] + wCorr[oc]
//
// where rowSum[j] = 128·Σ of pixel j's biased taps (see rowSumBand).
// Tri rows are padded to a multiple of four with all-zero ghost rows so the
// kernel always runs its fully-unrolled four-row form; ghost channels
// multiply to zero and their lanes are never written back.
func packConvWeights(weight []int8, outC, ckk int) ([]uint64, []int32) {
	rows := ((outC+2)/3 + 3) / 4 * 4
	packed := make([]uint64, rows*ckk)
	wCorr := make([]int32, outC)
	for oc := 0; oc < outC; oc++ {
		row := weight[oc*ckk : (oc+1)*ckk]
		prow := packed[(oc/3)*ckk : (oc/3+1)*ckk]
		shiftBits := uint(21 * (oc % 3))
		var sum int32
		for p, wv := range row {
			b := int32(wv) + 128
			prow[p] |= uint64(uint32(b)) << shiftBits
			sum += b
		}
		wCorr[oc] = 16384*int32(ckk) - 128*sum
	}
	return packed, wCorr
}

// biasPrefixPadded converts an int8 CHW image to its biased-unsigned form
// (tap+128, a sign-bit flip) written into a zero-padded plane of
// (h+2·pad)×(w+2·pad) per channel — padding cells hold 128, the biased
// zero — and builds per-row prefix sums of the unpadded biased bytes:
// prefix[(ci·h+iy)·(w+1)+x] = Σ of the first x biased samples of row
// (ci, iy). The padded plane lets the direct GEMM kernels read any kernel
// tap with an unconditional shifted load; the prefix sums price every
// pixel's zero-point correction with two lookups instead of summing its
// C·K² taps byte by byte.
func biasPrefixPadded(src []int8, c, h, w, pad int, padded []uint8, prefix []int32) {
	ph, pw := h+2*pad, w+2*pad
	if pad > 0 {
		for i := range padded {
			padded[i] = 128
		}
	}
	for ci := 0; ci < c; ci++ {
		for iy := 0; iy < h; iy++ {
			srow := src[(ci*h+iy)*w : (ci*h+iy+1)*w]
			prow := padded[(ci*ph+iy+pad)*pw+pad:]
			prow = prow[:w]
			pref := prefix[(ci*h+iy)*(w+1) : (ci*h+iy+1)*(w+1)]
			var s int32
			pref[0] = 0
			for x, v := range srow {
				b := uint8(v) ^ 0x80
				prow[x] = b
				s += int32(b)
				pref[x+1] = s
			}
		}
	}
}

// rowSumBand fills rowSum[j] = 128·Σ(biased taps of band pixel j) for the
// output-row band [oyLo, oyHi) — the per-pixel half of the packed GEMM's
// zero-point correction — from per-row prefix sums (see biasPrefixPadded).
// The packed kernels run stride 1 only, so output pixel (oy, ox) reads the
// window whose top-left input tap is (oy−pad, ox−pad).
func rowSumBand(prefix []int32, c, h, w, k, pad, oyLo, oyHi, ow int, rowSum []int32) {
	// Zero-point sums from the per-row prefix sums. Horizontally interior
	// pixels (full k-wide window) are swept per (channel, tap-row) so the
	// inner loop is two loads and an add with no clamping; only the ≤pad
	// boundary pixels per side run the generic clamped path.
	oxL := pad
	if oxL > ow {
		oxL = ow
	}
	oxR := w - k + pad + 1
	if oxR > ow {
		oxR = ow
	}
	if oxR < oxL {
		oxR = oxL
	}
	for oy := oyLo; oy < oyHi; oy++ {
		iy0 := oy - pad
		kyLo := 0
		if iy0 < 0 {
			kyLo = -iy0
		}
		kyHi := k
		if iy0+k > h {
			kyHi = h - iy0
		}
		if kyHi < kyLo {
			kyHi = kyLo
		}
		row := rowSum[(oy-oyLo)*ow : (oy-oyLo)*ow+ow]
		for _, r := range [2][2]int{{0, oxL}, {oxR, ow}} {
			for ox := r[0]; ox < r[1]; ox++ {
				ix0 := ox - pad
				kxLo := 0
				if ix0 < 0 {
					kxLo = -ix0
				}
				kxHi := k
				if ix0+k > w {
					kxHi = w - ix0
				}
				if kxLo >= kxHi || kyLo >= kyHi {
					row[ox] = int32(c*k*k) * 128 * 128
					continue
				}
				sum := int32(0)
				for ci := 0; ci < c; ci++ {
					pref := prefix[ci*h*(w+1) : (ci+1)*h*(w+1)]
					for ky := kyLo; ky < kyHi; ky++ {
						pb := (iy0+ky)*(w+1) + ix0
						sum += pref[pb+kxHi] - pref[pb+kxLo]
					}
				}
				padTaps := c * (k*k - (kyHi-kyLo)*(kxHi-kxLo))
				row[ox] = (sum + 128*int32(padTaps)) * 128
			}
		}
		if oxL >= oxR {
			continue
		}
		in := row[oxL:oxR]
		for i := range in {
			in[i] = 0
		}
		for ci := 0; ci < c; ci++ {
			pref := prefix[ci*h*(w+1) : (ci+1)*h*(w+1)]
			for ky := kyLo; ky < kyHi; ky++ {
				pb := (iy0+ky)*(w+1) + oxL - pad
				pa := pref[pb : pb+len(in)]
				pc := pref[pb+k : pb+k+len(in)]
				pc = pc[:len(in)]
				for i := range pa {
					in[i] += pc[i] - pa[i]
				}
			}
		}
		padBand := 128 * int32(c*(k*k-(kyHi-kyLo)*k))
		for i := range in {
			in[i] = (in[i] + padBand) * 128
		}
	}
}

// finalizeOne converts one int32 accumulator into int8, fusing the bias
// add, the optional ReLU and the round-shift requantization — the DPU's
// write-back path.
func finalizeOne(acc, bias int32, relu bool, shift int) int8 {
	v := int64(acc) + int64(bias)
	if relu {
		v &^= v >> 63
	}
	return RoundShift(v, shift)
}

// finalizeFused is finalizeOne followed by an optional second round-shift —
// the write-back of a producer whose output feeds a concat at a different
// fix position (see the store-target fusion in xmodel). The two rounding
// steps are applied separately on purpose: RoundShift(RoundShift(v,s1),s2)
// differs from RoundShift(v,s1+s2) in general, and bit-identity with the
// unfused conv→concat-requant pipeline requires rounding exactly as it did.
func finalizeFused(acc, bias int32, relu bool, shift, shift2 int) int8 {
	v := finalizeOne(acc, bias, relu, shift)
	if shift2 == 0 {
		return v
	}
	return RoundShift(int64(v), shift2)
}

// roundSat8 is RoundShift restricted to shift ≥ 1 with the rounding constant
// precomputed — small enough for the compiler to inline into kernel
// write-back loops, where the full RoundShift switch costs a call per output
// element. Bit-identical to RoundShift(v, shift) for shift ≥ 1.
func roundSat8(v int64, shift uint, half int64) int8 {
	// Branchless round-half-away-from-zero: the accumulator's sign is
	// data-dependent, so a sign test here would mispredict about half the
	// time at ~15 cycles a miss. |v| stays well under 2⁶³ (int32 range plus
	// bias), so the xor/sub absolute value is exact.
	sign := v >> 63
	r := (((v ^ sign) - sign + half) >> shift)
	r = (r ^ sign) - sign
	if r > 127 {
		r = 127
	}
	if r < -128 {
		r = -128
	}
	return int8(r)
}

// finalizeInt8 applies finalizeFused across one channel's accumulator row,
// with the common shift ≥ 1 case inlined and its branches hoisted.
func finalizeInt8(acc []int32, bias int32, relu bool, shift, shift2 int, out []int8) {
	out = out[:len(acc)]
	if shift > 0 && shift2 >= 0 {
		us, half := uint(shift), int64(1)<<uint(shift-1)
		var us2 uint
		var half2 int64
		if shift2 > 0 {
			us2, half2 = uint(shift2), int64(1)<<uint(shift2-1)
		}
		b := int64(bias)
		for j, a := range acc {
			v := int64(a) + b
			if relu {
				v &^= v >> 63
			}
			r := roundSat8(v, us, half)
			if us2 != 0 {
				r = roundSat8(int64(r), us2, half2)
			}
			out[j] = r
		}
		return
	}
	for j, a := range acc {
		out[j] = finalizeFused(a, bias, relu, shift, shift2)
	}
}

// clampBits saturates a layer's write-back to the signed bits-wide grid.
// Narrow integer layers run the INT8 kernels — their codes are a subset of
// the int8 grid and accumulation is exact — and clamping the 8-bit result
// afterwards is exact too: RoundShiftBits(v, s, b) equals RoundShift(v, s)
// clamped to ±QMaxBits(b), and a fused ReLU commutes with the clamp.
func clampBits(dst []int8, bits int) {
	if bits >= Bits8 {
		return
	}
	hi := int8(QMaxBits(bits))
	lo := -hi - 1
	for i, v := range dst {
		if v > hi {
			dst[i] = hi
		} else if v < lo {
			dst[i] = lo
		}
	}
}

// convScratch owns the per-chunk tile arena: rowSums[id] holds the
// per-pixel zero-point sums of the band tile id is working on. Tile id ==
// par chunk id, so concurrent tile bands never share scratch. ensure grows
// the arena (count and per-tile capacity) lazily; once the largest conv in a
// graph has run at the current worker count the steady-state path performs
// no allocations. biased/prefix hold the layer-wide biased input and its
// per-row prefix sums (see biasPrefixPadded) — written serially before the
// tile fan-out, read-only inside it.
type convScratch struct {
	rowSums [][]int32
	biased  []uint8
	prefix  []int32
}

// ensureInput sizes the shared padded-plane/prefix buffers for a c×h×w
// input convolved with padding pad.
func (s *convScratch) ensureInput(c, h, w, pad int) ([]uint8, []int32) {
	nb, np := c*(h+2*pad)*(w+2*pad), c*h*(w+1)
	if cap(s.biased) < nb {
		s.biased = make([]uint8, nb)
	}
	if cap(s.prefix) < np {
		s.prefix = make([]int32, np)
	}
	return s.biased[:nb], s.prefix[:np]
}

// ensure returns the arena resized to n tiles of at least rowInts
// zero-point sums each.
func (s *convScratch) ensure(n, rowInts int) [][]int32 {
	for len(s.rowSums) < n {
		s.rowSums = append(s.rowSums, nil)
	}
	for i := 0; i < n; i++ {
		if cap(s.rowSums[i]) < rowInts {
			s.rowSums[i] = make([]int32, rowInts)
		}
	}
	return s.rowSums[:n]
}

// convTileTargetBytes bounds the biased input taps one GEMM tile reads
// (ow·rows·C·K², counting each tap once per output pixel) so the band's
// slice of the padded plane stays L1-resident: the kernel streams every
// packed weight row over the band, so a hot band is what turns the blocking
// into a bandwidth win.
const convTileTargetBytes = 24 << 10

// convTileRows returns how many output rows one tile band covers.
func convTileRows(ow, ckk, oh int) int {
	r := convTileTargetBytes / (ow * ckk)
	if r < 1 {
		r = 1
	}
	if r > oh {
		r = oh
	}
	return r
}

// convInt8 computes a stride-1 integer convolution with int32 accumulation
// and DPU round-shift requantization. bias is at fix position
// inFP+weightFP; shift converts the accumulator to the output fix position;
// shift2 is the store-target fusion's second requantization (0 when
// unfused). relu applies the fused activation before saturation. packed
// and wCorr come from packConvWeights and exist only for the geometries the
// kernel covers (K² ≤ triChunk, C·K² ≤ maxPackedCKK, see QNode.convPacked);
// the reference kernel convIntRef runs every other layer.
//
// The output plane is processed in cache-blocked tiles — bands of a few
// output rows, sized by convTileRows — dispatched through par.ForChunkedID
// with per-chunk scratch from sc, so the steady-state path allocates
// nothing. Within a band the GEMM kernels read tap quads straight off the
// padded biased input plane, and the packed weights run three output
// channels per 64-bit multiply in 21-bit lanes. Lanes spill into int32
// accumulators every triChunk taps so they can never carry; the zero-point
// correction, bias, optional ReLU and round-shift requantization are fused
// into the register write-back. The result is bit-identical to the
// per-weight signed loop it replaces (exact integer identity, including
// int32 wraparound), and identical at every worker count: tile geometry
// depends only on the node, and each pixel's accumulation order is fixed.
func convInt8(src []int8, c, h, w int, packed []uint64, wCorr []int32, bias []int32, outC, k, pad int, shift, shift2 int, relu bool, dst []int8, oh, ow int, sc *convScratch) {
	ckk := c * k * k
	hw := oh * ow
	rowsPer := convTileRows(ow, ckk, oh)
	nTiles := (oh + rowsPer - 1) / rowsPer
	want := par.MaxWorkers()
	if want > nTiles {
		want = nTiles
	}
	rowSums := sc.ensure(want, rowsPer*ow)
	padded, prefix := sc.ensureInput(c, h, w, pad)
	biasPrefixPadded(src, c, h, w, pad, padded, prefix)
	cg := triChunk / (k * k)
	rows := (outC + 2) / 3
	par.ForChunkedID(nTiles, len(rowSums), func(id, lo, hi int) {
		for t := lo; t < hi; t++ {
			oyLo := t * rowsPer
			oyHi := oyLo + rowsPer
			if oyHi > oh {
				oyHi = oh
			}
			rowSum := rowSums[id][:(oyHi-oyLo)*ow]
			rowSumBand(prefix, c, h, w, k, pad, oyLo, oyHi, ow, rowSum)
			// Greedy 2/1-row dispatch: pairs of tri-lane rows run the
			// 2-row×4-pixel kernel at full multiplier density, a trailing
			// odd row runs the full-density 1-row×8-pixel kernel. No padded
			// ghost rows, so narrow layers pay only for the channels they
			// have.
			for r0 := 0; r0 < rows; {
				nch := outC - 3*r0
				if rows-r0 >= 2 {
					if nch > 6 {
						nch = 6
					}
					convTri2x4Direct(padded, rowSum, packed, wCorr, bias, r0, nch, c, k, cg, ckk, h, w, pad, shift, shift2, relu, dst, oyLo, oyHi, ow, hw)
					r0 += 2
				} else {
					convTri1x8Direct(padded, rowSum, packed, wCorr, bias, r0, nch, c, k, cg, ckk, h, w, pad, shift, shift2, relu, dst, oyLo, oyHi, ow, hw)
					r0++
				}
			}
		}
	})
}

// convTriTailDirect accumulates one packed weight row's three 21-bit lanes
// for a single output pixel straight off the padded plane, spilling lanes
// every cg channel planes (cg·K² ≤ triChunk taps, so lanes cannot carry).
func convTriTailDirect(pl []uint8, ph, pw, c, k, cg int, pk []uint64, oy, ox int) (int32, int32, int32) {
	var l0, l1, l2 int32
	wp := 0
	for cb := 0; cb < c; cb += cg {
		ce := cb + cg
		if ce > c {
			ce = c
		}
		var a uint64
		for ci := cb; ci < ce; ci++ {
			rbase := (ci*ph+oy)*pw + ox
			for ky := 0; ky < k; ky++ {
				for _, bv := range pl[rbase : rbase+k] {
					a += pk[wp] * uint64(bv)
					wp++
				}
				rbase += pw
			}
		}
		l0 += int32(a & triLaneMask)
		l1 += int32((a >> 21) & triLaneMask)
		l2 += int32(a >> 42)
	}
	return l0, l1, l2
}

// convTri2x4Direct is the stride-1 GEMM workhorse: two tri-lane weight rows
// (up to six output channels) against four neighbouring pixels whose bytes
// come from one 32-bit load on the padded biased input plane — no column
// matrix is materialized at all. Lane spills happen once per cg channel
// planes (cg·K² ≤ triChunk taps), so a lane never sums more than triChunk
// products and accumulation stays exact.
// Accumulator s[ch·4+q] holds channel 3·r0+ch at pixel (oy, ox+q).
func convTri2x4Direct(pl []uint8, rowSum []int32, packed []uint64, wCorr, bias []int32, r0, nch, c, k, cg, ckk, h, w, pad int, shift, shift2 int, relu bool, dst []int8, oyLo, oyHi, ow, hw int) {
	ph, pw := h+2*pad, w+2*pad
	pkA := packed[(r0+0)*ckk : (r0+1)*ckk]
	pkB := packed[(r0+1)*ckk : (r0+2)*ckk]
	pkB = pkB[:len(pkA)]
	oc0 := 3 * r0
	fast := shift > 0 && shift2 >= 0
	var us, us2 uint
	var half, half2 int64
	if fast {
		us, half = uint(shift), int64(1)<<uint(shift-1)
		if shift2 > 0 {
			us2, half2 = uint(shift2), int64(1)<<uint(shift2-1)
		}
	}
	var s [24]int32
	for oy := oyLo; oy < oyHi; oy++ {
		jrow := (oy - oyLo) * ow
		ox := 0
		for ; ox+3 < ow; ox += 4 {
			for i := range s {
				s[i] = 0
			}
			wp := 0
			for cb := 0; cb < c; cb += cg {
				ce := cb + cg
				if ce > c {
					ce = c
				}
				var a0, a1, a2, a3, b0, b1, b2, b3 uint64
				if k == 3 {
					// Fully unrolled 3×3 body: three shifted 32-bit loads per
					// kernel row, no inner-tap loop overhead.
					for ci := cb; ci < ce; ci++ {
						rbase := (ci*ph+oy)*pw + ox
						for ky := 0; ky < 3; ky++ {
							row := pl[rbase : rbase+6 : rbase+6]
							pa := pkA[wp : wp+3 : wp+3]
							pb := pkB[wp : wp+3 : wp+3]
							quad := binary.LittleEndian.Uint32(row)
							v0 := uint64(quad & 0xff)
							v1 := uint64((quad >> 8) & 0xff)
							v2 := uint64((quad >> 16) & 0xff)
							v3 := uint64(quad >> 24)
							u0, u1 := pa[0], pb[0]
							a0 += u0 * v0
							a1 += u0 * v1
							a2 += u0 * v2
							a3 += u0 * v3
							b0 += u1 * v0
							b1 += u1 * v1
							b2 += u1 * v2
							b3 += u1 * v3
							quad = binary.LittleEndian.Uint32(row[1:])
							v0 = uint64(quad & 0xff)
							v1 = uint64((quad >> 8) & 0xff)
							v2 = uint64((quad >> 16) & 0xff)
							v3 = uint64(quad >> 24)
							u0, u1 = pa[1], pb[1]
							a0 += u0 * v0
							a1 += u0 * v1
							a2 += u0 * v2
							a3 += u0 * v3
							b0 += u1 * v0
							b1 += u1 * v1
							b2 += u1 * v2
							b3 += u1 * v3
							quad = binary.LittleEndian.Uint32(row[2:])
							v0 = uint64(quad & 0xff)
							v1 = uint64((quad >> 8) & 0xff)
							v2 = uint64((quad >> 16) & 0xff)
							v3 = uint64(quad >> 24)
							u0, u1 = pa[2], pb[2]
							a0 += u0 * v0
							a1 += u0 * v1
							a2 += u0 * v2
							a3 += u0 * v3
							b0 += u1 * v0
							b1 += u1 * v1
							b2 += u1 * v2
							b3 += u1 * v3
							wp += 3
							rbase += pw
						}
					}
				} else {
					for ci := cb; ci < ce; ci++ {
						rbase := (ci*ph+oy)*pw + ox
						for ky := 0; ky < k; ky++ {
							row := pl[rbase : rbase+k+3]
							for kx := 0; kx < k; kx++ {
								quad := binary.LittleEndian.Uint32(row[kx:])
								v0 := uint64(quad & 0xff)
								v1 := uint64((quad >> 8) & 0xff)
								v2 := uint64((quad >> 16) & 0xff)
								v3 := uint64(quad >> 24)
								u0, u1 := pkA[wp], pkB[wp]
								wp++
								a0 += u0 * v0
								a1 += u0 * v1
								a2 += u0 * v2
								a3 += u0 * v3
								b0 += u1 * v0
								b1 += u1 * v1
								b2 += u1 * v2
								b3 += u1 * v3
							}
							rbase += pw
						}
					}
				}
				s[0] += int32(a0 & triLaneMask)
				s[4] += int32((a0 >> 21) & triLaneMask)
				s[8] += int32(a0 >> 42)
				s[1] += int32(a1 & triLaneMask)
				s[5] += int32((a1 >> 21) & triLaneMask)
				s[9] += int32(a1 >> 42)
				s[2] += int32(a2 & triLaneMask)
				s[6] += int32((a2 >> 21) & triLaneMask)
				s[10] += int32(a2 >> 42)
				s[3] += int32(a3 & triLaneMask)
				s[7] += int32((a3 >> 21) & triLaneMask)
				s[11] += int32(a3 >> 42)
				s[12] += int32(b0 & triLaneMask)
				s[16] += int32((b0 >> 21) & triLaneMask)
				s[20] += int32(b0 >> 42)
				s[13] += int32(b1 & triLaneMask)
				s[17] += int32((b1 >> 21) & triLaneMask)
				s[21] += int32(b1 >> 42)
				s[14] += int32(b2 & triLaneMask)
				s[18] += int32((b2 >> 21) & triLaneMask)
				s[22] += int32(b2 >> 42)
				s[15] += int32(b3 & triLaneMask)
				s[19] += int32((b3 >> 21) & triLaneMask)
				s[23] += int32(b3 >> 42)
			}
			j := jrow + ox
			if fast {
				for ch := 0; ch < nch; ch++ {
					oc := oc0 + ch
					lanes, bi := s[ch*4:ch*4+4], int64(bias[oc])
					d := dst[oc*hw+oy*ow+ox:]
					d = d[:4]
					corr := wCorr[oc]
					for q := 0; q < 4; q++ {
						v := int64(lanes[q]-rowSum[j+q]+corr) + bi
						if relu {
							v &^= v >> 63
						}
						r := roundSat8(v, us, half)
						if us2 != 0 {
							r = roundSat8(int64(r), us2, half2)
						}
						d[q] = r
					}
				}
			} else {
				for ch := 0; ch < nch; ch++ {
					oc := oc0 + ch
					d := dst[oc*hw+oy*ow+ox:]
					for q := 0; q < 4; q++ {
						d[q] = finalizeFused(s[ch*4+q]-rowSum[j+q]+wCorr[oc], bias[oc], relu, shift, shift2)
					}
				}
			}
		}
		for ; ox < ow; ox++ {
			rs := rowSum[jrow+ox]
			l0, l1, l2 := convTriTailDirect(pl, ph, pw, c, k, cg, pkA, oy, ox)
			m0, m1, m2 := convTriTailDirect(pl, ph, pw, c, k, cg, pkB, oy, ox)
			lane := [6]int32{l0, l1, l2, m0, m1, m2}
			for ch := 0; ch < nch; ch++ {
				oc := oc0 + ch
				dst[oc*hw+oy*ow+ox] = finalizeFused(lane[ch]-rs+wCorr[oc], bias[oc], relu, shift, shift2)
			}
		}
	}
}

// convTri1x8Direct handles the last odd tri-lane row (up to three channels)
// against eight pixels per pass with a single 64-bit plane load, at the same
// multiplier density as the paired kernel.
func convTri1x8Direct(pl []uint8, rowSum []int32, packed []uint64, wCorr, bias []int32, r0, nch, c, k, cg, ckk, h, w, pad int, shift, shift2 int, relu bool, dst []int8, oyLo, oyHi, ow, hw int) {
	ph, pw := h+2*pad, w+2*pad
	pk := packed[r0*ckk : (r0+1)*ckk]
	oc0 := 3 * r0
	var s [24]int32
	for oy := oyLo; oy < oyHi; oy++ {
		jrow := (oy - oyLo) * ow
		ox := 0
		for ; ox+7 < ow; ox += 8 {
			for i := range s {
				s[i] = 0
			}
			wp := 0
			for cb := 0; cb < c; cb += cg {
				ce := cb + cg
				if ce > c {
					ce = c
				}
				var a0, a1, a2, a3, a4, a5, a6, a7 uint64
				if k == 3 {
					// Fully unrolled 3×3 body: three shifted 64-bit loads per
					// kernel row, no inner-tap loop overhead.
					for ci := cb; ci < ce; ci++ {
						rbase := (ci*ph+oy)*pw + ox
						for ky := 0; ky < 3; ky++ {
							row := pl[rbase : rbase+10 : rbase+10]
							pa := pk[wp : wp+3 : wp+3]
							oct := binary.LittleEndian.Uint64(row)
							u := pa[0]
							a0 += u * (oct & 0xff)
							a1 += u * ((oct >> 8) & 0xff)
							a2 += u * ((oct >> 16) & 0xff)
							a3 += u * ((oct >> 24) & 0xff)
							a4 += u * ((oct >> 32) & 0xff)
							a5 += u * ((oct >> 40) & 0xff)
							a6 += u * ((oct >> 48) & 0xff)
							a7 += u * (oct >> 56)
							oct = binary.LittleEndian.Uint64(row[1:])
							u = pa[1]
							a0 += u * (oct & 0xff)
							a1 += u * ((oct >> 8) & 0xff)
							a2 += u * ((oct >> 16) & 0xff)
							a3 += u * ((oct >> 24) & 0xff)
							a4 += u * ((oct >> 32) & 0xff)
							a5 += u * ((oct >> 40) & 0xff)
							a6 += u * ((oct >> 48) & 0xff)
							a7 += u * (oct >> 56)
							oct = binary.LittleEndian.Uint64(row[2:])
							u = pa[2]
							a0 += u * (oct & 0xff)
							a1 += u * ((oct >> 8) & 0xff)
							a2 += u * ((oct >> 16) & 0xff)
							a3 += u * ((oct >> 24) & 0xff)
							a4 += u * ((oct >> 32) & 0xff)
							a5 += u * ((oct >> 40) & 0xff)
							a6 += u * ((oct >> 48) & 0xff)
							a7 += u * (oct >> 56)
							wp += 3
							rbase += pw
						}
					}
				} else {
					for ci := cb; ci < ce; ci++ {
						rbase := (ci*ph+oy)*pw + ox
						for ky := 0; ky < k; ky++ {
							row := pl[rbase : rbase+k+7]
							for kx := 0; kx < k; kx++ {
								oct := binary.LittleEndian.Uint64(row[kx:])
								u := pk[wp]
								wp++
								a0 += u * (oct & 0xff)
								a1 += u * ((oct >> 8) & 0xff)
								a2 += u * ((oct >> 16) & 0xff)
								a3 += u * ((oct >> 24) & 0xff)
								a4 += u * ((oct >> 32) & 0xff)
								a5 += u * ((oct >> 40) & 0xff)
								a6 += u * ((oct >> 48) & 0xff)
								a7 += u * (oct >> 56)
							}
							rbase += pw
						}
					}
				}
				s[0] += int32(a0 & triLaneMask)
				s[8] += int32((a0 >> 21) & triLaneMask)
				s[16] += int32(a0 >> 42)
				s[1] += int32(a1 & triLaneMask)
				s[9] += int32((a1 >> 21) & triLaneMask)
				s[17] += int32(a1 >> 42)
				s[2] += int32(a2 & triLaneMask)
				s[10] += int32((a2 >> 21) & triLaneMask)
				s[18] += int32(a2 >> 42)
				s[3] += int32(a3 & triLaneMask)
				s[11] += int32((a3 >> 21) & triLaneMask)
				s[19] += int32(a3 >> 42)
				s[4] += int32(a4 & triLaneMask)
				s[12] += int32((a4 >> 21) & triLaneMask)
				s[20] += int32(a4 >> 42)
				s[5] += int32(a5 & triLaneMask)
				s[13] += int32((a5 >> 21) & triLaneMask)
				s[21] += int32(a5 >> 42)
				s[6] += int32(a6 & triLaneMask)
				s[14] += int32((a6 >> 21) & triLaneMask)
				s[22] += int32(a6 >> 42)
				s[7] += int32(a7 & triLaneMask)
				s[15] += int32((a7 >> 21) & triLaneMask)
				s[23] += int32(a7 >> 42)
			}
			j := jrow + ox
			for ch := 0; ch < nch; ch++ {
				oc := oc0 + ch
				d := dst[oc*hw+oy*ow+ox:]
				for q := 0; q < 8; q++ {
					d[q] = finalizeFused(s[ch*8+q]-rowSum[j+q]+wCorr[oc], bias[oc], relu, shift, shift2)
				}
			}
		}
		for ; ox < ow; ox++ {
			rs := rowSum[jrow+ox]
			l0, l1, l2 := convTriTailDirect(pl, ph, pw, c, k, cg, pk, oy, ox)
			lane := [3]int32{l0, l1, l2}
			for ch := 0; ch < nch; ch++ {
				oc := oc0 + ch
				dst[oc*hw+oy*ow+ox] = finalizeFused(lane[ch]-rs+wCorr[oc], bias[oc], relu, shift, shift2)
			}
		}
	}
}

// packDconvWeights lowers a transpose-convolution weight tensor (layout
// [InC, OutC, K, K], so column row r reduces over InC with stride OutC·K²)
// into the same biased tri-lane form as packConvWeights: row triple r
// stores uint64(W[ic][3r]+128) | uint64(W[ic][3r+1]+128)<<21 |
// uint64(W[ic][3r+2]+128)<<42 indexed by ic, and
// wCorr[r] = 128²·InC − 128·Σ_ic(W[ic][r]+128).
func packDconvWeights(weight []int8, c, ckk int) ([]uint64, []int32) {
	rows := ((ckk+2)/3 + 3) / 4 * 4
	packed := make([]uint64, rows*c)
	wCorr := make([]int32, ckk)
	for r := 0; r < ckk; r++ {
		prow := packed[(r/3)*c : (r/3+1)*c]
		shiftBits := uint(21 * (r % 3))
		var sum int32
		for ic := 0; ic < c; ic++ {
			b := int32(weight[ic*ckk+r]) + 128
			prow[ic] |= uint64(uint32(b)) << shiftBits
			sum += b
		}
		wCorr[r] = 16384*int32(c) - 128*sum
	}
	return packed, wCorr
}

// transposeBiased lowers an int8 CHW image into biased HWC pixel rows
// (xT[j, c] = x[c, j]+128) with colSum[j] = 128·Σ(row j) — the per-pixel
// zero-point correction for the packed transpose-convolution GEMM.
func transposeBiased(src []int8, c, hw int, xT []uint8, colSum []int32) {
	par.ForChunked(hw, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := xT[j*c : (j+1)*c]
			sum := 0
			for ic := range row {
				v := int(src[ic*hw+j]) + 128
				row[ic] = uint8(v)
				sum += v
			}
			colSum[j] = int32(sum) * 128
		}
	})
}

// dconvTri4 computes four tri-lane weight rows (up to twelve column rows,
// nrow valid) of the transpose-convolution GEMM against every input pixel's
// biased channel row, two pixels per pass, writing exact int32 columns.
// Lanes spill into int32 accumulators every triChunk channels exactly like
// the convolution kernels.
func dconvTri4(xT []uint8, colSum []int32, packed []uint64, wCorr []int32, r0, nrow, c int, cols []int32, hw int) {
	pkA := packed[(r0+0)*c : (r0+1)*c]
	pkB := packed[(r0+1)*c : (r0+2)*c]
	pkC := packed[(r0+2)*c : (r0+3)*c]
	pkD := packed[(r0+3)*c : (r0+4)*c]
	row0 := 3 * r0
	var s, t [12]int32
	j := 0
	for ; j+1 < hw; j += 2 {
		xa := xT[j*c : (j+1)*c]
		xb := xT[(j+1)*c : (j+2)*c]
		for r := range s {
			s[r] = 0
			t[r] = 0
		}
		for base := 0; base < c; base += triChunk {
			end := base + triChunk
			if end > c {
				end = c
			}
			ca, cb := xa[base:end], xb[base:end]
			q0, q1, q2, q3 := pkA[base:end], pkB[base:end], pkC[base:end], pkD[base:end]
			cb = cb[:len(ca)]
			q0 = q0[:len(ca)]
			q1 = q1[:len(ca)]
			q2 = q2[:len(ca)]
			q3 = q3[:len(ca)]
			var a0, a1, a2, a3, e0, e1, e2, e3 uint64
			for p, xv := range ca {
				va, vb := uint64(xv), uint64(cb[p])
				u0, u1, u2, u3 := q0[p], q1[p], q2[p], q3[p]
				a0 += u0 * va
				a1 += u1 * va
				a2 += u2 * va
				a3 += u3 * va
				e0 += u0 * vb
				e1 += u1 * vb
				e2 += u2 * vb
				e3 += u3 * vb
			}
			s[0] += int32(a0 & triLaneMask)
			s[1] += int32((a0 >> 21) & triLaneMask)
			s[2] += int32(a0 >> 42)
			s[3] += int32(a1 & triLaneMask)
			s[4] += int32((a1 >> 21) & triLaneMask)
			s[5] += int32(a1 >> 42)
			s[6] += int32(a2 & triLaneMask)
			s[7] += int32((a2 >> 21) & triLaneMask)
			s[8] += int32(a2 >> 42)
			s[9] += int32(a3 & triLaneMask)
			s[10] += int32((a3 >> 21) & triLaneMask)
			s[11] += int32(a3 >> 42)
			t[0] += int32(e0 & triLaneMask)
			t[1] += int32((e0 >> 21) & triLaneMask)
			t[2] += int32(e0 >> 42)
			t[3] += int32(e1 & triLaneMask)
			t[4] += int32((e1 >> 21) & triLaneMask)
			t[5] += int32(e1 >> 42)
			t[6] += int32(e2 & triLaneMask)
			t[7] += int32((e2 >> 21) & triLaneMask)
			t[8] += int32(e2 >> 42)
			t[9] += int32(e3 & triLaneMask)
			t[10] += int32((e3 >> 21) & triLaneMask)
			t[11] += int32(e3 >> 42)
		}
		csA, csB := colSum[j], colSum[j+1]
		for r := 0; r < nrow; r++ {
			crow := cols[(row0+r)*hw:]
			wc := wCorr[row0+r]
			crow[j] = s[r] - csA + wc
			crow[j+1] = t[r] - csB + wc
		}
	}
	if j < hw {
		dconvTriPixel(xT[j*c:(j+1)*c], packed, r0, (nrow+2)/3, c, &s)
		cs := colSum[j]
		for r := 0; r < nrow; r++ {
			cols[(row0+r)*hw+j] = s[r] - cs + wCorr[row0+r]
		}
	}
}

// dconvTriPixel accumulates one input pixel's biased channel row against nr
// tri-lane weight rows starting at r0.
func dconvTriPixel(xr []uint8, packed []uint64, r0, nr, c int, s *[12]int32) {
	for r := 0; r < nr; r++ {
		pk := packed[(r0+r)*c : (r0+r+1)*c]
		var l0, l1, l2 int32
		for base := 0; base < c; base += triChunk {
			end := base + triChunk
			if end > c {
				end = c
			}
			pp := pk[base:end]
			var a uint64
			for p, xv := range xr[base:end] {
				a += pp[p] * uint64(xv)
			}
			l0 += int32(a & triLaneMask)
			l1 += int32((a >> 21) & triLaneMask)
			l2 += int32(a >> 42)
		}
		s[3*r], s[3*r+1], s[3*r+2] = l0, l1, l2
	}
}

// convTransposeInt8 computes an integer transpose convolution: cols = Wᵀ·x
// in int32, then a col2im scatter, and a fused bias+ReLU+requantization
// finalization (shift2 is the store-target fusion's second requantization,
// 0 when unfused). packed and wCorrT come from packDconvWeights; the
// reference kernel convTransposeIntRef covers layers too deep to pack.
//
// The caller provides xT (≥ C·H·W bytes) and colSum (≥ H·W int32) for the
// biased HWC transpose of the input, cols32 (≥ OutC·K²·H·W int32) for the
// column matrix and acc (≥ OutC·OH·OW int32) for the scatter accumulators.
// The column GEMM runs up to twelve rows per biased-byte stream in 21-bit
// tri lanes exactly like convInt8, and the scatter hoists the boundary
// clipping out of the pixel loops.
func convTransposeInt8(src []int8, c, h, w int, packed []uint64, wCorrT []int32, bias []int32, outC, k, stride, pad int, shift, shift2 int, relu bool, dst []int8, oh, ow int, xT []uint8, colSum []int32, cols32 []int32, acc []int32) {
	ckk := outC * k * k
	hw := h * w
	cols := cols32[:ckk*hw]
	xT = xT[:hw*c]
	colSum = colSum[:hw]
	transposeBiased(src, c, hw, xT, colSum)
	// cols[r, j] = Σ_ic W[ic, r] · x[ic, j]. Weight rows are padded to a
	// multiple of four (ghost rows all-zero), so every block runs the
	// fully-unrolled kernel; nrow bounds the column rows written back.
	rows := (ckk + 2) / 3
	par.For((rows+3)/4, func(b int) {
		r0 := 4 * b
		nrow := ckk - 3*r0
		if nrow > 12 {
			nrow = 12
		}
		dconvTri4(xT, colSum, packed, wCorrT, r0, nrow, c, cols, hw)
	})
	scatterFinalize(cols, bias, outC, k, stride, pad, shift, shift2, relu, dst, h, w, oh, ow, acc)
}

// scatterFinalize distributes the transpose-convolution column matrix into
// the (larger) output image and applies the fused bias+ReLU+requantization
// write-back.
func scatterFinalize(cols []int32, bias []int32, outC, k, stride, pad int, shift, shift2 int, relu bool, dst []int8, h, w, oh, ow int, acc []int32) {
	hw := h * w
	ohw := oh * ow
	par.For(outC, func(oc int) {
		tile := acc[oc*ohw : (oc+1)*ohw]
		clearInt32(tile)
		for ky := 0; ky < k; ky++ {
			// iy values whose target row py = iy*stride - pad + ky lands
			// inside [0, oh).
			iyLo := ceilDivInt(pad-ky, stride)
			if iyLo < 0 {
				iyLo = 0
			}
			iyHi := floorDivInt(oh-1+pad-ky, stride) + 1
			if iyHi > h {
				iyHi = h
			}
			for kx := 0; kx < k; kx++ {
				r := (oc*k+ky)*k + kx
				crow := cols[r*hw : (r+1)*hw]
				ixLo := ceilDivInt(pad-kx, stride)
				if ixLo < 0 {
					ixLo = 0
				}
				ixHi := floorDivInt(ow-1+pad-kx, stride) + 1
				if ixHi > w {
					ixHi = w
				}
				for iy := iyLo; iy < iyHi; iy++ {
					py := iy*stride - pad + ky
					srow := crow[iy*w : (iy+1)*w]
					drow := tile[py*ow : (py+1)*ow]
					px := ixLo*stride - pad + kx
					for ix := ixLo; ix < ixHi; ix++ {
						drow[px] += srow[ix]
						px += stride
					}
				}
			}
		}
		finalizeInt8(tile, bias[oc], relu, shift, shift2, dst[oc*ohw:(oc+1)*ohw])
	})
}

// maxPoolInt8 is 2×2/stride-2 max pooling on an int8 CHW image with a fused
// requantization: shift moves the pooled value to the output fix position
// in the same write-back pass (0 keeps the input scale). Folding the shift
// is bit-identical to pooling then requantizing the whole plane — the same
// RoundShift is applied to the same maxima, one memory pass earlier.
func maxPoolInt8(src []int8, c, h, w, shift int, dst []int8) {
	oh, ow := h/2, w/2
	par.For(c, func(ci int) {
		plane := src[ci*h*w : (ci+1)*h*w]
		out := dst[ci*oh*ow : (ci+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := oy*2, ox*2
				best := plane[iy*w+ix]
				if v := plane[iy*w+ix+1]; v > best {
					best = v
				}
				if v := plane[(iy+1)*w+ix]; v > best {
					best = v
				}
				if v := plane[(iy+1)*w+ix+1]; v > best {
					best = v
				}
				if shift != 0 {
					best = RoundShift(int64(best), shift)
				}
				out[oy*ow+ox] = best
			}
		}
	})
}

// reluInt8 applies max(0, x) with a fix-position change (shift) if the
// calibrated output scale differs from the input scale.
func reluInt8(src []int8, shift int, dst []int8) {
	par.ForChunked(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := src[i]
			if v < 0 {
				v = 0
			}
			if shift == 0 {
				dst[i] = v
			} else {
				dst[i] = RoundShift(int64(v), shift)
			}
		}
	})
}

// requantInt8 shifts a whole int8 buffer from one fix position to another.
func requantInt8(src []int8, shift int, dst []int8) {
	if shift == 0 {
		copy(dst, src)
		return
	}
	par.ForChunked(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = RoundShift(int64(src[i]), shift)
		}
	})
}

// argmaxChannelsInt8 returns the per-pixel argmax class over an int8 CHW
// logit map — the "INT8 masks" the deployed model returns (Section III-E).
func argmaxChannelsInt8(src []int8, c, hw int) []uint8 {
	out := make([]uint8, hw)
	par.ForChunked(hw, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			best := src[j]
			bi := 0
			for ch := 1; ch < c; ch++ {
				if v := src[ch*hw+j]; v > best {
					best = v
					bi = ch
				}
			}
			out[j] = uint8(bi)
		}
	})
	return out
}

// dequantizeToTensor expands an int8 CHW activation into a float tensor.
func dequantizeToTensor(src []int8, fp FixPos, shape [3]int) *tensor.Tensor {
	t := tensor.New(shape[0], shape[1], shape[2])
	DequantizeSlice(src, fp, t.Data)
	return t
}
