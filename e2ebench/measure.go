package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"seneca/internal/cluster"
	"seneca/internal/dpu"
	"seneca/internal/obs"
	"seneca/internal/serve"
	"seneca/internal/study"
	"seneca/internal/vart"
)

// setupReps is how many times a run sets the deployment up; setup_s is
// the median and the last deployment is the one measured.
const setupReps = 7

// simFrames is the frame count of the simulated-board throughput run.
const simFrames = 1000

// stepReport is one timed phase's accounting: an open-loop phase at an
// offered rate, or a closed-loop capacity block with a fixed client count.
type stepReport struct {
	Name     string     `json:"name"`
	Rate     float64    `json:"rate_rps"` // offered rate; 0 for a closed loop
	Clients  int        `json:"clients,omitempty"`
	Sent     int        `json:"sent"`
	OK       int        `json:"succeeded"`
	Failed   int        `json:"failed"`
	P50MS    float64    `json:"p50_ms"`
	Tail     tail       `json:"tail_ms"`
	LagP50MS float64    `json:"lag_p50_ms"`
	LagP99MS float64    `json:"lag_p99_ms"`
	Backlog  [2]float64 `json:"backlog_q2_q4"`
	Growing  bool       `json:"backlog_growing"`
	Pass     bool       `json:"pass"`
	Achieved float64    `json:"achieved_rps"`
}

// runData is everything one measured pass produced.
type runData struct {
	setup   []float64
	phases  []*phaseLog  // every timed slice phase, in run order
	rounds  []stepReport // the nominal open-loop rounds
	blocks  []stepReport // the closed-loop capacity blocks
	beside  []stepReport // the interactive streams beside the volume blocks
	runs    []round      // the timed rounds' logs
	vols    *volumeLog   // every volume of the timed rounds
	wrong   int
	props   inputProps
	d       *deployment
	elapsed time.Duration // timed phases, wall

	heapPeaks  []float64 // bytes, the peak of each round
	gcFrac     float64
	allocs     uint64
	serveStats []serve.Stats
	fleet      *cluster.Stats
	stageMS    map[study.Stage]float64
	stageCount map[study.Stage]uint64
	retries    uint64
	sim        vart.Result
}

// attempted counts every request and volume sent in the timed phases.
func (r *runData) attempted() int {
	n := 0
	for _, l := range r.phases {
		for _, ss := range l.streams {
			n += len(ss)
		}
	}
	if r.vols != nil {
		n += len(r.vols.samples)
	}
	return n
}

// failed counts errors, refusals, expirations and wrong masks.
func (r *runData) failed() int {
	n := r.wrong
	for _, l := range r.phases {
		for _, ss := range l.streams {
			for _, s := range ss {
				if s.res.err != nil {
					n++
				}
			}
		}
	}
	if r.vols != nil {
		for _, s := range r.vols.samples {
			if s.err != nil {
				n++
			}
		}
	}
	return n
}

// measure sets the workload up, drives its phases for secs and checks
// every output. With t set it serves through the traced backend kind and
// records spans.
func measure(ctx context.Context, w *workload, in *inputs, seed int64, secs float64,
	reps int, t *tracer, dir string) (*runData, error) {
	rd := &runData{}
	backends := "dpu-sim:1"
	var seg func(study.Segmenter) study.Segmenter
	var hooks *reqHooks
	if t != nil {
		backends = tracedKind + ":1"
		seg = func(s study.Segmenter) study.Segmenter { return &timedSegmenter{Segmenter: s, t: t} }
		hooks = &reqHooks{t: t, in: in}
		activeTracer.Store(t)
		defer activeTracer.Store(nil)
	}
	for i := 0; i < reps; i++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		sr, err := timedSetup(w, in, seed, backends, filepath.Join(dir, fmt.Sprintf("setup%d", i)), seg)
		if err != nil {
			return nil, err
		}
		rd.setup = append(rd.setup, sr.seconds)
		if i < reps-1 {
			sr.d.close()
			continue
		}
		rd.d = sr.d
	}
	d := rd.d
	defer d.close()

	total := time.Duration(secs * float64(time.Second))
	roundLen := func(f float64) time.Duration { return time.Duration(f * float64(total) / float64(w.rounds)) }

	// Half a round, untimed, lets pools, caches and the heap reach their
	// working size, so the first timed round is not a cold start.
	runRound(ctx, w, d, in, seed-1_000_003, "warm-up", func(f float64) time.Duration { return roundLen(f) / 2 }, nil)

	if t != nil {
		t.on.Store(true)
	}
	sampler := startRuntimeSampler()
	start := time.Now()
	rd.vols = &volumeLog{}
	for r := 0; r < w.rounds; r++ {
		rr := runRound(ctx, w, d, in, seed+int64(r)*1_000_003, strconv.Itoa(r+1), roundLen, hooks)
		rd.phases = append(rd.phases, rr.nominal, rr.block)
		rd.rounds = append(rd.rounds, report(rr.nominal, w.rate, w.slo))
		rd.blocks = append(rd.blocks, blockReport(rr.block, w.capClients, w.slo))
		rd.phases = append(rd.phases, rr.beside)
		rd.beside = append(rd.beside, report(rr.beside, w.rate, w.slo))
		rd.runs = append(rd.runs, rr)
		rd.vols.merge(rr.vols)
		rd.heapPeaks = append(rd.heapPeaks, sampler.lap())
	}
	rd.elapsed = time.Since(start)
	if t != nil {
		t.on.Store(false)
	}
	rd.gcFrac, rd.allocs = sampler.stop()

	for _, s := range d.serverList() {
		rd.serveStats = append(rd.serveStats, s.Stats())
	}
	if d.cluster != nil {
		st := d.cluster.Stats()
		rd.fleet = &st
	}
	if d.svc != nil {
		rd.stageMS, rd.stageCount, rd.retries = studyStages(d.svc.Metrics())
	}

	// Correctness, after the timed phases.
	o := newOracle(d, in)
	wrong, err := o.checkSlices(rd.phases)
	if err != nil {
		return nil, err
	}
	vw, err := o.checkVolumes(ctx, rd.vols)
	if err != nil {
		return nil, err
	}
	rd.wrong = wrong + vw
	rd.props = o.finalProps(repeatedShare(rd.phases, in))

	runner := vart.New(dpu.New(dpu.ZCU104B4096()), d.prog, 4)
	if rd.sim, err = runner.SimulateThroughput(simFrames, 0); err != nil {
		return nil, fmt.Errorf("simulating throughput: %w", err)
	}
	return rd, nil
}

// round is what one round of a workload produced.
type round struct {
	nominal, block *phaseLog
	beside         *phaseLog // the interactive stream beside the volume block
	vols           *volumeLog
}

// runRound runs one round: the nominal open loop, a closed-loop capacity
// block and a closed-loop volume block, one after the other. The volume
// block keeps as many study jobs outstanding as the study tier has
// workers, or one batch-tier fan-out volume, with the nominal interactive
// stream beside them on the same front door. length turns a workload
// share into the phase's duration.
func runRound(ctx context.Context, w *workload, d *deployment, in *inputs, seed int64, label string,
	length func(share float64) time.Duration, hooks *reqHooks) round {
	var rr round
	rr.nominal = runOpenLoop(ctx, d.front, in, seed, "nominal-"+label, length(w.nominalShare), w.interactive(w.rate), hooks)
	rr.block = runClosedLoop(ctx, d.front, in, seed+1, "capacity-"+label, length(w.capacityShare),
		w.capClients, w.interactive(0)[0], hooks)
	outstanding := 1
	if w.front == frontStudy {
		outstanding = studyWorkers
	}
	stop := closeAfter(length(w.volumeShare))
	done := make(chan *volumeLog, 1)
	go func() { done <- runVolumes(ctx, d, in, seed, stop, outstanding, hooks) }()
	rr.beside = runOpenLoop(ctx, d.front, in, seed+2, "beside-"+label, length(w.volumeShare), w.interactive(w.rate), hooks)
	rr.vols = <-done
	return rr
}

// report summarizes one open-loop phase at interactive rate r. The phase
// passes when its interactive tail stays within slo, nothing failed and
// the backlog did not grow.
func report(l *phaseLog, r float64, slo time.Duration) stepReport {
	st := stepReport{Name: l.name, Rate: r}
	ss := l.streams[tierInteractive]
	var lat, okLat, lag []float64
	for _, s := range ss {
		st.Sent++
		lag = append(lag, ms(s.lag))
		if s.res.err != nil {
			st.Failed++
			lat = append(lat, math.Inf(1)) // a failure misses every limit
			continue
		}
		st.OK++
		lat = append(lat, ms(s.latency))
		okLat = append(okLat, ms(s.latency))
	}
	// The reported latencies are those of the requests that completed
	// (failures are counted in served_ratio); the pass test counts a
	// failure as a miss.
	st.P50MS = median(okLat)
	st.Tail, _ = tailPercentile(okLat)
	worst, _ := tailPercentile(lat)
	st.LagP50MS = median(lag)
	st.LagP99MS = quantile(lag, 0.99)
	st.Growing = backlogGrowing(l.backlog)
	st.Backlog[0], st.Backlog[1], _ = backlogQuarters(l.backlog)
	st.Pass = st.Failed == 0 && worst.N > tailBeyond && worst.Value <= ms(slo) && !st.Growing
	// Achieved rate: completions over the span that served them, the
	// phase plus the median request's latency.
	if st.OK > 0 {
		st.Achieved = float64(st.OK) / (l.duration.Seconds() + st.P50MS/1000)
	}
	return st
}

// blockReport summarizes one closed-loop capacity block of the given
// client count. The block passes when nothing failed and its interactive
// tail stays within slo.
func blockReport(l *phaseLog, clients int, slo time.Duration) stepReport {
	st := stepReport{Name: l.name, Clients: clients}
	var lat []float64
	for _, s := range l.streams[tierInteractive] {
		st.Sent++
		if s.res.err != nil {
			st.Failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		st.OK++
		lat = append(lat, ms(s.latency))
	}
	ok := okLatencies(l)
	st.P50MS = median(ok)
	st.Tail, _ = tailPercentile(ok)
	worst, _ := tailPercentile(lat)
	st.Achieved = littleRate(clients, ok, st.Sent)
	st.Pass = st.Failed == 0 && worst.N > tailBeyond && worst.Value <= ms(slo)
	return st
}

// littleRate is the rate of successful requests a closed loop of clients
// sustained: the client count over the mean latency (Little's law without
// think time), scaled by the share that succeeded. Unlike a count of
// completions in a short block it does not step by whole micro-batches.
func littleRate(clients int, okMS []float64, sent int) float64 {
	if len(okMS) == 0 {
		return 0
	}
	return float64(clients) / (mean(okMS) / 1000) * float64(len(okMS)) / float64(sent)
}

// okLatencies returns the latencies (ms) of a phase's successful
// interactive requests.
func okLatencies(l *phaseLog) []float64 {
	var out []float64
	for _, s := range l.streams[tierInteractive] {
		if s.res.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// repeatedShare is the share of slice requests whose slice had already
// been sent earlier in the run.
func repeatedShare(logs []*phaseLog, in *inputs) float64 {
	seen := make([]bool, len(in.slices))
	n, rep := 0, 0
	for _, l := range logs {
		for _, ss := range l.streams {
			for _, s := range ss {
				n++
				if seen[s.slice] {
					rep++
				}
				seen[s.slice] = true
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(rep) / float64(n)
}

// studyStages reads the study service's per-stage duration histograms
// (mean ms and count per stage) and its retry counters.
func studyStages(reg *obs.Registry) (map[study.Stage]float64, map[study.Stage]uint64, uint64) {
	meanMS := map[study.Stage]float64{}
	count := map[study.Stage]uint64{}
	var retries uint64
	for _, st := range stageOrder {
		l := obs.L("stage", string(st))
		h := reg.Histogram("seneca_study_stage_duration_seconds", "", obs.StageBuckets, l)
		if c := h.Count(); c > 0 {
			meanMS[st] = h.Sum() / float64(c) * 1000
			count[st] = c
		}
		retries += reg.Counter("seneca_study_stage_retries_total", "", l).Value()
	}
	return meanMS, count, retries
}

// stageOrder lists the study pipeline's stages in execution order.
var stageOrder = []study.Stage{
	study.StageIngest, study.StagePreprocess, study.StageInfer,
	study.StageReassemble, study.StagePostprocess, study.StageReport,
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- runtime sampling ---------------------------------------------------

// runtimeSampler samples heap in use every heapTick, keeping the peak
// since the last lap, and snapshots GC CPU time and allocation counts at
// start and stop.
type runtimeSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	peak   float64
	gc0    float64
	cpu0   float64
	alloc0 uint64
}

const heapTick = 10 * time.Millisecond

var runtimeNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func heapInUse(s []metrics.Sample) float64 {
	return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
}

func startRuntimeSampler() *runtimeSampler {
	s0 := readRuntime()
	rs := &runtimeSampler{
		stopCh: make(chan struct{}),
		peak:   heapInUse(s0),
		gc0:    s0[2].Value.Float64(),
		cpu0:   s0[3].Value.Float64(),
		alloc0: s0[4].Value.Uint64(),
	}
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		t := time.NewTicker(heapTick)
		defer t.Stop()
		buf := make([]metrics.Sample, 2)
		buf[0].Name, buf[1].Name = runtimeNames[0], runtimeNames[1]
		for {
			select {
			case <-rs.stopCh:
				return
			case <-t.C:
				metrics.Read(buf)
				rs.observe(heapInUse(buf))
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) observe(h float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if h > rs.peak {
		rs.peak = h
	}
}

// lap returns the peak heap bytes since the previous lap (or the start)
// and starts the next lap from the heap in use now.
func (rs *runtimeSampler) lap() float64 {
	now := readRuntime()
	rs.observe(heapInUse(now))
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p := rs.peak
	rs.peak = heapInUse(now)
	return p
}

// stop ends sampling and returns the GC share of CPU time and the objects
// allocated since start.
func (rs *runtimeSampler) stop() (gcFrac float64, allocs uint64) {
	close(rs.stopCh)
	rs.wg.Wait()
	s := readRuntime()
	if cpu := s[3].Value.Float64() - rs.cpu0; cpu > 0 {
		gcFrac = (s[2].Value.Float64() - rs.gc0) / cpu
	}
	return gcFrac, s[4].Value.Uint64() - rs.alloc0
}

// closeAfter returns a channel closed after d.
func closeAfter(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}
