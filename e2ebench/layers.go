package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/par"
	"seneca/internal/tensor"
)

// layerMetric declares one per-layer metric: its unit and the end-to-end
// metric (and workload) it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is every per-layer metric the traced run prints, in order.
// A layer a workload does not reach reports 0.
var layerMetrics = []layerMetric{
	{"serve.wait_ms_mean", "ms", "slice_p50_ms on fleet-tiers and slice-int8 (little on slice-mixed)"},
	{"serve.batch_frames_mean", "frames", "slice_capacity_rps on fleet-tiers and slice-int8"},
	{"serve.rejected", "count", "served_ratio"},
	{"serve.expired", "count", "served_ratio"},
	{"backend.exec_ms_p50", "ms", "slice_capacity_rps on fleet-tiers and slice-*"},
	{"backend.exec_ms_per_frame", "ms", "slice_capacity_rps on fleet-tiers and slice-*"},
	{"backend.busy_frac", "ratio", "slice_capacity_rps on fleet-tiers and slice-*"},
	{"backend.batches", "count", "(count)"},
	{"backend.frames", "count", "(count)"},
	{"backend.sim_fps_served", "frames/s", "explains served sim throughput vs sim_fps"},
	{"quant.frame_ms_p50", "ms", "slice_p50_ms, slice_capacity_rps on every workload (lowbit: slice-mixed)"},
	{"quant.gmac_per_s", "GMAC/s", "slice_p50_ms, slice_capacity_rps on every workload (lowbit: slice-mixed)"},
	{"quant.allocs_per_frame", "allocs", "peak_heap_mb"},
	{"quant.bytes_per_frame", "bytes", "peak_heap_mb"},
	{"par.speedup", "x", "slice_p50_ms on fleet-tiers and slice-int8"},
	{"dpu.frame_us", "us", "sim_fps, sim_fps_per_watt (simulated clock)"},
	{"vart.core_busy_frac", "ratio", "sim_fps, sim_fps_per_watt (simulated clock)"},
	{"vart.mac_utilization", "ratio", "sim_fps, sim_fps_per_watt (simulated clock)"},
	{"study.stage_ms.ingest", "ms", "volume_p50_s on volume-study"},
	{"study.stage_ms.preprocess", "ms", "volume_p50_s on volume-study"},
	{"study.stage_ms.infer", "ms", "volume_p50_s on volume-study"},
	{"study.stage_ms.reassemble", "ms", "volume_p50_s on volume-study"},
	{"study.stage_ms.postprocess", "ms", "volume_p50_s on volume-study"},
	{"study.stage_ms.report", "ms", "volume_p50_s on volume-study"},
	{"study.infer_share", "ratio", "volume_p50_s on volume-study"},
	{"study.submit_ms_p50", "ms", "volume_slices_per_s on volume-study"},
	{"study.slices_in_flight_mean", "slices", "volume_slices_per_s on volume-study"},
	{"study.retries", "count", "served_ratio on volume-study"},
	{"cluster.node_share_max", "ratio", "slice_p99_ms on fleet-tiers"},
	{"cluster.hedge_ratio", "ratio", "slice_p99_ms, served_ratio on fleet-tiers"},
	{"cluster.hedge_win_ratio", "ratio", "slice_p99_ms, served_ratio on fleet-tiers"},
	{"cluster.batch_shed_ratio", "ratio", "served_ratio on fleet-tiers"},
	{"cluster.retry_denied", "count", "served_ratio on fleet-tiers"},
	{"cluster.redispatches", "count", "served_ratio on fleet-tiers"},
	{"go.gc_cpu_frac", "ratio", "slice_p99_ms"},
	{"go.allocs_per_request", "allocs", "peak_heap_mb"},
	{"loadgen.lag_ms_p99", "ms", "(validity check; moves nothing)"},
}

// perLayer derives the per-layer metrics of a traced pass, then runs the
// sequential Program.Run phase on the workload's program.
func perLayer(w *workload, in *inputs, rd *runData, t *tracer) (map[string]metric, error) {
	v := map[string]float64{}

	// serve: request spans minus the backend time their frames spent.
	var reqMS float64
	requests := 0
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "frontdoor.") || s.Name == "volume.slice" || s.Name == "study.submit" {
			reqMS += float64(s.End-s.Start) / 1e6
			requests++
		}
	}
	if requests > 0 {
		v["serve.wait_ms_mean"] = (reqMS - sumExecFrames(t)) / float64(requests)
	}
	var occ []float64
	for _, l := range rd.phases {
		for _, ss := range l.streams {
			for _, s := range ss {
				if s.res.err == nil {
					occ = append(occ, float64(s.res.batch))
				}
			}
		}
	}
	v["serve.batch_frames_mean"] = mean(occ)
	for _, st := range rd.serveStats {
		v["serve.rejected"] += float64(st.Rejected)
		v["serve.expired"] += float64(st.Expired)
	}

	// backend: the traced kind's Execute calls.
	bt := &t.backend
	if len(bt.execMS) > 0 {
		v["backend.exec_ms_p50"] = median(bt.execMS)
		v["backend.exec_ms_per_frame"] = bt.busy.Seconds() * 1000 / float64(bt.frames)
		v["backend.busy_frac"] = bt.busy.Seconds() / (rd.elapsed.Seconds() * float64(len(rd.serveStats)))
		v["backend.batches"] = float64(len(bt.execMS))
		v["backend.frames"] = float64(bt.frames)
		if bt.simDur > 0 {
			v["backend.sim_fps_served"] = float64(bt.simFrames) / bt.simDur.Seconds()
		}
	}

	// quant, xmodel, par: the program alone, one frame at a time.
	if err := programPhase(w, in, rd, t, v); err != nil {
		return nil, err
	}

	// dpu, vart: the simulated board.
	v["dpu.frame_us"] = float64(dpu.New(dpu.ZCU104B4096()).TimeFrame(rd.d.prog).Latency) / float64(time.Microsecond)
	v["vart.core_busy_frac"] = rd.sim.CoreBusyFrac
	v["vart.mac_utilization"] = rd.sim.Utilization

	// study: stage histograms, the timed Segmenter, retries.
	totalStage := 0.0
	for _, st := range stageOrder {
		v["study.stage_ms."+string(st)] = rd.stageMS[st]
		totalStage += rd.stageMS[st] * float64(rd.stageCount[st])
	}
	if totalStage > 0 {
		v["study.infer_share"] = rd.stageMS["infer"] * float64(rd.stageCount["infer"]) / totalStage
	}
	sub := &t.submits
	if len(sub.ms) > 0 {
		v["study.submit_ms_p50"] = median(sub.ms)
		if span := sub.lastT - sub.firstT; span > 0 {
			v["study.slices_in_flight_mean"] = sub.area / float64(span)
		}
	}
	v["study.retries"] = float64(rd.retries)

	// cluster: the fleet's own counters.
	if f := rd.fleet; f != nil {
		var total, top uint64
		for _, n := range f.Nodes {
			total += n.Completed
			if n.Completed > top {
				top = n.Completed
			}
		}
		if total > 0 {
			v["cluster.node_share_max"] = float64(top) / float64(total)
		}
		if f.Interactive.Submitted > 0 {
			v["cluster.hedge_ratio"] = float64(f.Hedges) / float64(f.Interactive.Submitted)
		}
		if f.Hedges > 0 {
			v["cluster.hedge_win_ratio"] = float64(f.HedgeWins) / float64(f.Hedges)
		}
		if f.Batch.Submitted > 0 {
			v["cluster.batch_shed_ratio"] = float64(f.Batch.Shed) / float64(f.Batch.Submitted)
		}
		v["cluster.retry_denied"] = float64(f.RetryDenied)
		v["cluster.redispatches"] = float64(f.Redispatches)
	}

	// process and harness.
	v["go.gc_cpu_frac"] = rd.gcFrac
	if n := rd.frames(); n > 0 {
		v["go.allocs_per_request"] = float64(rd.allocs) / float64(n)
	}
	v["loadgen.lag_ms_p99"] = maxLag(rd)

	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, nil
}

// sumExecFrames is Σ over batches of exec time × frames: the backend time
// the requests of each batch spent executing.
func sumExecFrames(t *tracer) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == "backend.execute" {
			total += float64(s.End-s.Start) / 1e6
		}
	}
	return total
}

// frames counts the slices the timed phases served (requests plus volume
// slices).
func (r *runData) frames() int {
	n := 0
	for _, l := range r.phases {
		for _, ss := range l.streams {
			n += len(ss)
		}
	}
	for _, s := range r.vols.samples {
		n += s.slices
	}
	return n
}

// programFrames is how many frames the sequential Program.Run phase times
// per worker setting: enough for a stable median at each program's cost.
func programFrames(w *workload) int {
	if w.mixed {
		return 6
	}
	return 24
}

// programPhase runs the served program directly, one frame at a time, at
// the default worker budget and at one worker.
func programPhase(w *workload, in *inputs, rd *runData, t *tracer, v map[string]float64) error {
	n := programFrames(w)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		s := in.slices[i%len(in.slices)]
		imgs[i] = tensor.FromSlice(append([]float32(nil), s.data...), 1, modelSize, modelSize)
	}
	prog := rd.d.prog
	t.on.Store(true)
	defer t.on.Store(false)
	pass := func() ([]float64, error) {
		out := make([]float64, n)
		for i, img := range imgs {
			r := t.start(0, 0, "program.run")
			t0 := time.Now()
			if _, err := prog.Run(img); err != nil {
				return nil, err
			}
			out[i] = ms(time.Since(t0))
			t.finish(r)
		}
		return out, nil
	}
	if _, err := prog.Run(imgs[0]); err != nil { // warm the executor pool
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	def, err := pass()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	prev := par.SetMaxWorkers(1)
	one, err := pass()
	par.SetMaxWorkers(prev)
	if err != nil {
		return err
	}
	p50 := median(def)
	v["quant.frame_ms_p50"] = p50
	v["quant.gmac_per_s"] = float64(prog.Stats().MACs) / (p50 / 1000) / 1e9
	v["quant.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	v["quant.bytes_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	v["par.speedup"] = median(one) / p50
	return nil
}

func printLayers(m map[string]metric, overhead map[string]metric) {
	fmt.Printf("\n== per-layer (traced pass)\n")
	for _, lm := range layerMetrics {
		x := m[lm.name]
		fmt.Printf("  %-30s %14.4f %-9s -> %s\n", lm.name, x.Value, x.Unit, lm.moves)
	}
	fmt.Printf("tracing overhead (traced minus untraced):\n")
	keys := make([]string, 0, len(overhead))
	for k := range overhead {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-30s %+14.4f %s\n", k, overhead[k].Value, overhead[k].Unit)
	}
}

// selfTimes returns, per span name, the span count, the mean duration and
// the mean self time: each span's duration minus the part of it that its
// children cover (overlapping children counted once, clipped to the
// parent).
func selfTimes(spans []span) map[string][3]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := map[string][3]float64{}
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		self := dur - float64(covered(s, children[s.ID]))
		a := acc[s.Name]
		a[0]++
		a[1] += dur
		a[2] += self
		acc[s.Name] = a
	}
	for k, a := range acc {
		acc[k] = [3]float64{a[0], a[1] / a[0] / 1e6, a[2] / a[0] / 1e6}
	}
	return acc
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a <= cur.b:
			cur.b = max(cur.b, x.b)
		default:
			total += cur.b - cur.a
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

func printSelfTimes(spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("span self time (mean per span):\n")
	for _, k := range names {
		a := st[k]
		fmt.Printf("  %-24s n=%-6.0f dur %9.3f ms  self %9.3f ms\n", k, a[0], a[1], a[2])
	}
}
