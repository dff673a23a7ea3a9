package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seneca/internal/cluster"
	"seneca/internal/dpu"
	"seneca/internal/graph"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/study"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// modelSize is the served input geometry: the Table II "1M" U-Net (depth 4,
// 8 base filters) takes 64×64 slices, the largest size at which the mixed
// program still serves several masks per second on a small host.
const modelSize = 64

// calibSlices is how many phantom slices PTQ calibrates on.
const calibSlices = 8

// servedConfig is the deployed serving configuration: the defaults of the
// seneca-serve, seneca-study and seneca-cluster binaries. seneca-study
// sets no per-request timeout; the other two default to 5 s.
func servedConfig(backends string, timeout time.Duration) serve.Config {
	return serve.Config{
		Backends:   backends,
		Threads:    4,
		MaxBatch:   8,
		MaxDelay:   2 * time.Millisecond,
		QueueDepth: 64,
		Timeout:    timeout,
		Seed:       1,
	}
}

const binaryTimeout = 5 * time.Second

// programInfo records the precision mix of a compiled program.
type programInfo struct {
	Int4Layers, Int8Layers, FP32Layers int
	MACs                               int64
}

// buildProgram builds the 1M U-Net with seeded weights, calibrates it with
// PTQ on the given slices and compiles it. mixed selects the deterministic
// mixed-precision configuration: INT4 on every 3×3 convolution except the
// first and the last, like the search's "mpq-fast" variant.
func buildProgram(mixed bool, calib []*tensor.Tensor) (*xmodel.Program, programInfo, error) {
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		return nil, programInfo{}, err
	}
	cfg.Seed = 2
	g := unet.New(cfg).Export(modelSize, modelSize)
	opt := quant.Options{}
	name := "int8-uniform"
	if mixed {
		qc, err := mixedConfig(g)
		if err != nil {
			return nil, programInfo{}, err
		}
		opt.Config = qc
		name = "mpq-int4"
	}
	q, err := quant.PTQ(g, calib, opt)
	if err != nil {
		return nil, programInfo{}, fmt.Errorf("calibrating %s: %w", name, err)
	}
	prog, err := xmodel.Compile(q, name)
	if err != nil {
		return nil, programInfo{}, fmt.Errorf("compiling %s: %w", name, err)
	}
	info := programInfo{MACs: prog.Stats().MACs}
	for _, n := range q.Nodes {
		if n.Kind != graph.KindConv && n.Kind != graph.KindConvTranspose {
			continue
		}
		switch n.Bits {
		case quant.Bits4:
			info.Int4Layers++
		case quant.BitsFP32:
			info.FP32Layers++
		default:
			info.Int8Layers++
		}
	}
	return prog, info, nil
}

// mixedConfig puts every convolution except the first and the last at INT4.
func mixedConfig(g *graph.Graph) (*quant.QConfig, error) {
	folded, err := quant.Fold(g)
	if err != nil {
		return nil, err
	}
	var convs []string
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv {
			convs = append(convs, n.Name)
		}
	}
	if len(convs) < 3 {
		return nil, fmt.Errorf("mixed config: only %d convolutions", len(convs))
	}
	qc := &quant.QConfig{Layers: map[string]int{}}
	for _, name := range convs[1 : len(convs)-1] {
		qc.Layers[name] = quant.Bits4
	}
	return qc, nil
}

// deployment is one started configuration of the system under test. Slice
// requests enter through front; volumes through the study routes when svc
// is set.
type deployment struct {
	prog    *xmodel.Program
	info    programInfo
	front   http.Handler
	cluster *cluster.Cluster
	svc     *study.Service

	mu      sync.Mutex // guards servers: the cluster's factory appends
	servers []*serve.Server
}

// serverList returns every serve.Server the deployment started.
func (d *deployment) serverList() []*serve.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*serve.Server(nil), d.servers...)
}

// deploy builds, calibrates, compiles and starts the workload's
// configuration. backends is the serve pool spec; seg, when non-nil, wraps
// the server handed to the study service (the traced run's timing wrapper).
func deploy(w *workload, calib []*tensor.Tensor, backends string, storeDir string,
	seg func(study.Segmenter) study.Segmenter) (*deployment, error) {
	prog, info, err := buildProgram(w.mixed, calib)
	if err != nil {
		return nil, err
	}
	d := &deployment{prog: prog, info: info}
	switch w.front {
	case frontServe, frontStudy:
		timeout := binaryTimeout
		if w.front == frontStudy {
			timeout = 0
		}
		srv, err := serve.New(dpu.New(dpu.ZCU104B4096()), prog, servedConfig(backends, timeout))
		if err != nil {
			return nil, err
		}
		d.servers = []*serve.Server{srv}
		d.front = srv.Handler()
		if w.front == frontStudy {
			var s study.Segmenter = srv
			if seg != nil {
				s = seg(srv)
			}
			svc, err := study.New(s, study.Config{
				Dir:           storeDir,
				Workers:       studyWorkers,
				SliceParallel: 4,
				QueueDepth:    64,
				MaxAttempts:   3,
				Seed:          1,
			})
			if err != nil {
				d.close()
				return nil, err
			}
			d.svc = svc
			mux := http.NewServeMux()
			mux.Handle("/", srv.Handler())
			svc.Routes(mux)
			d.front = mux
		}
	case frontCluster:
		factory := func() (*serve.Server, error) {
			srv, err := serve.New(dpu.New(dpu.ZCU104B4096()), prog, servedConfig(backends, binaryTimeout))
			if err == nil {
				d.mu.Lock()
				d.servers = append(d.servers, srv)
				d.mu.Unlock()
			}
			return srv, err
		}
		c, err := cluster.New(factory, cluster.Config{
			MinNodes:  fleetNodes,
			MaxNodes:  fleetNodes,
			Placement: cluster.PolicyLeastLoaded,
			// Hedging on: an interactive request still waiting after a
			// quarter of its remaining deadline gets a second node.
			HedgeFraction: 0.25,
		})
		if err != nil {
			return nil, err
		}
		d.cluster = c
		d.front = c.Handler()
	}
	return d, nil
}

// close stops every component and waits for each to drain.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.svc != nil {
		d.svc.Close()
	}
	if d.cluster != nil {
		d.cluster.Shutdown(ctx)
		return
	}
	for _, s := range d.serverList() {
		s.Shutdown(ctx)
	}
}

// calibrationSet draws PTQ calibration slices from the workload's inputs.
func calibrationSet(in *inputs, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed ^ 0x5eca))
	out := make([]*tensor.Tensor, calibSlices)
	for i := range out {
		s := in.slices[rng.Intn(len(in.slices))]
		out[i] = tensor.FromSlice(append([]float32(nil), s.data...), 1, modelSize, modelSize)
	}
	return out
}

// setupResult is one timed set-up plus the deployment it produced.
type setupResult struct {
	d       *deployment
	seconds float64
}

// timedSetup runs build + calibrate + compile + start + warm-up once.
func timedSetup(w *workload, in *inputs, seed int64, backends, dir string,
	seg func(study.Segmenter) study.Segmenter) (setupResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return setupResult{}, err
	}
	start := time.Now()
	d, err := deploy(w, calibrationSet(in, seed), backends, filepath.Join(dir, "store"), seg)
	if err != nil {
		return setupResult{}, err
	}
	if err := warmUp(d, in); err != nil {
		d.close()
		return setupResult{}, fmt.Errorf("warm-up: %w", err)
	}
	return setupResult{d: d, seconds: time.Since(start).Seconds()}, nil
}

// warmUp sends one full micro-batch of slices through the front door so
// executor pools and lazily built runners exist before timing starts.
func warmUp(d *deployment, in *inputs) error {
	done := make(chan error, warmUpRequests)
	for i := 0; i < warmUpRequests; i++ {
		s := in.slices[i%len(in.slices)]
		go func() {
			res := postSlice(context.Background(), d.front, s.body, tierInteractive, 0)
			done <- res.err
		}()
	}
	var first error
	for i := 0; i < warmUpRequests; i++ {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

const (
	warmUpRequests = 8
	studyWorkers   = 2
	fleetNodes     = 2
)
