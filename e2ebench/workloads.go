package main

import (
	"fmt"
	"time"
)

// front is the public entry point a workload's requests go through.
type front int

const (
	frontServe   front = iota // one serve.Server Handler (seneca-serve)
	frontStudy                // serve Handler + study routes on one mux (seneca-study)
	frontCluster              // cluster.Handler over serve replicas (seneca-cluster)
)

// workload is one deployment and traffic mix. A run is a number of
// rounds, each a nominal open-loop phase, a closed-loop capacity block
// and a closed-loop volume block with the nominal stream beside it. Phase
// lengths are shares of the run's --seconds, split evenly over the rounds.
type workload struct {
	name  string
	why   string // one line, as in BENCHMARK.json
	mixed bool   // serve the mixed INT4/INT8 program instead of uniform INT8
	front front

	slo        time.Duration // interactive tail limit a phase must meet to pass
	rate       float64       // nominal interactive slice rate, req/s (Poisson)
	capClients int           // closed-loop interactive clients of a capacity block: MaxBatch per node
	deadline   time.Duration // interactive X-Seneca-Deadline-Ms (0: none)
	volumes    int           // phantom volumes in the input pool

	// rounds interleaves the phases, so a slow spell of the host lands
	// on every metric alike; each round-by-round metric is the median
	// over the rounds.
	rounds                                   int
	nominalShare, capacityShare, volumeShare float64
}

// Workloads. BENCHMARK.json gates volume-study and fleet-tiers; the two
// slice workloads run the same way by name. The input properties below are
// the benchmark's own census (printed by every run as "inputs:"), measured
// at 40 s per run, seeds 201..210, on a 2-vCPU Xeon host:
//
//   - Volumes are 256×256×34 phantom CT studies (generated at 46 nominal
//     slices and cropped to the central 34). Slice requests draw uniformly
//     from the preprocessed slices of the pool's volumes (68 distinct
//     slices for two volumes), so most repeat a slice already sent: 0.95-
//     0.96 of requests on both gated workloads.
//   - The weights are seeded, not trained, so the masks are debris. The
//     reference volume masks are 99.6-99.8% background (classes 1-5:
//     0.003-0.012%, 0.013-0.020%, 0.024-0.025%, 0.05-0.17%, 0.12-0.33%),
//     and the largest-component filter removes 58-83% of class-1 voxels
//     and 56-95% of the other organ classes. The 64×64 slice masks are
//     96.0-96.7% background. A postprocess optimization is weighed on that
//     debris-heavy input, not on clinical masks.
var workloads = []*workload{
	{
		// Uniform INT8 program on one server. The tri-lane INT8 kernels in
		// internal/quant do most of the host work and the batcher sees real
		// queues, so internal/par and serve-overhead changes show here. It
		// never reaches lowbit.go, study or cluster: the prediction for
		// changes there is no movement. Program: 23 INT8 conv layers (19
		// 3×3/1×1 convolutions, 4 transposed), 0 INT4, 0 FP32.
		name:       "slice-int8",
		why:        "uniform INT8 program on one server: tri-lane kernels, batcher and par; never reaches lowbit, study or cluster",
		front:      frontServe,
		slo:        250 * time.Millisecond,
		rate:       20,
		capClients: 8,
		volumes:    2,
		rounds:     6,

		nominalShare: 0.5, capacityShare: 0.25, volumeShare: 0.25,
	},
	{
		// The same path with INT4 on every convolution but the first and
		// the last (like mpq-fast). The lowbit.go reference kernels
		// dominate the host clock while the simulated board is *faster*
		// than INT8: the gap between sim_fps and slice_capacity_rps is the
		// cost-honesty gap. A fast INT4 engine must move this workload and
		// leave slice-int8 unchanged. Program: 17 INT4 and 6 INT8 conv
		// layers (the first and last convolutions and the 4 transposed
		// ones), 0 FP32. A frame takes 100-250 ms of host time here, so no
		// rate meets a 250 ms tail: the limit is 1 s.
		name:       "slice-mixed",
		why:        "mixed INT4/INT8 program on one server: lowbit reference kernels dominate the host clock, the board clock is faster",
		mixed:      true,
		front:      frontServe,
		slo:        time.Second,
		rate:       3,
		capClients: 4,
		volumes:    1,
		rounds:     3,

		nominalShare: 0.5, capacityShare: 0.25, volumeShare: 0.25,
	},
	{
		// Raw NIfTI volumes with ground truth (postprocess on) posted to
		// the study routes, as many outstanding as study workers, with an
		// open-loop interactive slice stream beside them on the same
		// server. Stages outside infer, the durable store's writes and the
		// SliceParallel fan-out contend with independent slice arrivals,
		// and that contention shows in volume_p50_s and
		// volume_slices_per_s. The slice metrics come from the rounds'
		// own nominal phases and capacity blocks, without volumes: beside
		// the volumes, a slice's median latency depended on how the two
		// jobs' stages lined up and varied up to 1.8× between the rounds
		// of one run.
		name:       "volume-study",
		why:        "NIfTI volumes through the study tier beside an interactive slice stream on the same server",
		front:      frontStudy,
		slo:        250 * time.Millisecond,
		rate:       20,
		capClients: 8,
		volumes:    2,
		rounds:     6,

		nominalShare: 0.3, capacityShare: 0.3, volumeShare: 0.4,
	},
	{
		// Two-node fleet behind the cluster front door (no autoscaling,
		// least-loaded placement): interactive traffic with a 2 s deadline
		// and hedging on; in the volume blocks a batch-tier fan-out volume
		// client beside the interactive stream, so both tiers share the
		// fleet there. The only workload through placement, two-tier
		// admission and hedging under the retry budget. The nominal phases
		// carry interactive traffic only: with 10 req/s of batch-tier
		// slices beside it, the interactive tail spread 34% between runs
		// of the same code. The capacity blocks keep one micro-batch per
		// node in flight; with eight clients a block's rate flipped
		// between about 80 and 120 req/s.
		name:       "fleet-tiers",
		why:        "two-node cluster front door: placement, interactive and batch tiers, deadlines and hedging",
		front:      frontCluster,
		slo:        250 * time.Millisecond,
		rate:       20,
		capClients: 16,
		deadline:   2 * time.Second,
		volumes:    2,
		rounds:     6,

		nominalShare: 0.5, capacityShare: 0.25, volumeShare: 0.25,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// interactive returns the interactive open-loop stream at rate r.
func (w *workload) interactive(r float64) []stream {
	return []stream{{name: tierInteractive, rate: r, tier: tierInteractive, deadline: w.deadline}}
}
