package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/backend"
	"seneca/internal/dpu"
	"seneca/internal/energy"
	"seneca/internal/study"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one request or one volume job share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// spanRef names an open span another layer's span may hang under.
type spanRef struct{ trace, id uint64 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per hook.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// on gates recording to the timed phases (and the program phase), so
	// set-up, warm-up and the oracle's reference passes stay out.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	open  map[uint64]span // by ID
	// pending maps an input's content key to the open spans waiting for
	// that input to execute, oldest first: the backend hangs each frame's
	// execution under the request (or study submit) that sent it.
	pending map[uint64][]spanRef
	// jobs maps a volume index to its open job spans, oldest first.
	jobs map[int][]spanRef
	// sliceVolume maps a slice's content key to its volume.
	sliceVolume map[uint64]int

	backend backendTally
	submits submitTally
}

func newTracer(in *inputs) *tracer {
	t := &tracer{
		epoch:       time.Now(),
		open:        map[uint64]span{},
		pending:     map[uint64][]spanRef{},
		jobs:        map[int][]spanRef{},
		sliceVolume: map[uint64]int{},
	}
	for _, s := range in.slices {
		t.sliceVolume[s.key] = s.volume
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span. trace 0 starts a new trace.
func (t *tracer) start(trace, parent uint64, name string) spanRef {
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.now()}
	t.mu.Lock()
	t.open[id] = s
	t.mu.Unlock()
	return spanRef{trace, id}
}

// finish closes an open span.
func (t *tracer) finish(r spanRef) {
	end := t.now()
	t.mu.Lock()
	if s, ok := t.open[r.id]; ok {
		delete(t.open, r.id)
		s.End = end
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// record adds a closed span with explicit bounds.
func (t *tracer) record(trace, parent uint64, name string, start, end int64) {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) addPending(key uint64, r spanRef) {
	t.mu.Lock()
	t.pending[key] = append(t.pending[key], r)
	t.mu.Unlock()
}

func (t *tracer) dropPending(key uint64, r spanRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	refs := t.pending[key]
	for i, p := range refs {
		if p == r {
			t.pending[key] = append(refs[:i:i], refs[i+1:]...)
			break
		}
	}
	if len(t.pending[key]) == 0 {
		delete(t.pending, key)
	}
}

// claimPending pops the oldest open span waiting for the input key.
func (t *tracer) claimPending(key uint64) (spanRef, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	refs := t.pending[key]
	if len(refs) == 0 {
		return spanRef{}, false
	}
	r := refs[0]
	if len(refs) == 1 {
		delete(t.pending, key)
	} else {
		t.pending[key] = refs[1:]
	}
	return r, true
}

// write stores every closed span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reqHooks are the load generator's tracing hooks; a nil receiver is a
// no-op, which is what the untraced run uses.
type reqHooks struct {
	t  *tracer
	in *inputs
}

type reqSpan struct {
	ref spanRef
	key uint64
}

// begin opens a front-door request span.
func (h *reqHooks) begin(stream string, slice int) reqSpan {
	if h == nil {
		return reqSpan{}
	}
	r := h.t.start(0, 0, "frontdoor."+stream)
	key := h.in.slices[slice].key
	h.t.addPending(key, r)
	return reqSpan{ref: r, key: key}
}

// beginSlice opens a slice request span under a volume job span.
func (h *reqHooks) beginSlice(job spanRef, slice int) reqSpan {
	if h == nil {
		return reqSpan{}
	}
	r := h.t.start(job.trace, job.id, "volume.slice")
	key := h.in.slices[slice].key
	h.t.addPending(key, r)
	return reqSpan{ref: r, key: key}
}

func (h *reqHooks) end(s reqSpan) {
	if h == nil {
		return
	}
	h.t.dropPending(s.key, s.ref)
	h.t.finish(s.ref)
}

// beginJob opens a volume job span for volume v.
func (h *reqHooks) beginJob(v int) spanRef {
	if h == nil {
		return spanRef{}
	}
	r := h.t.start(0, 0, "volume.job")
	h.t.mu.Lock()
	h.t.jobs[v] = append(h.t.jobs[v], r)
	h.t.mu.Unlock()
	return r
}

func (h *reqHooks) endJob(r spanRef) {
	if h == nil {
		return
	}
	h.t.mu.Lock()
	for v, refs := range h.t.jobs {
		for i, p := range refs {
			if p == r {
				h.t.jobs[v] = append(refs[:i:i], refs[i+1:]...)
			}
		}
	}
	h.t.mu.Unlock()
	h.t.finish(r)
}

// ---- backend layer -----------------------------------------------------

// tracedKind is the backend kind the traced run serves with: dpu-sim with
// every Execute timed. It is registered through the public registry and
// never used by the untraced run.
const tracedKind = "traced-dpu-sim"

// activeTracer is the tracer the traced backends report to; set before the
// traced deployment is built.
var activeTracer atomic.Pointer[tracer]

func init() {
	backend.Register(tracedKind, func(dev *dpu.Device, prog *xmodel.Program, opt backend.Options) (backend.Backend, error) {
		inner, err := backend.New("dpu-sim", dev, prog, opt)
		if err != nil {
			return nil, err
		}
		return &tracedBackend{Backend: inner}, nil
	})
}

// backendTally accumulates what the traced backends executed.
type backendTally struct {
	mu        sync.Mutex
	execMS    []float64
	frames    int
	busy      time.Duration
	simFrames int
	simDur    time.Duration
}

type tracedBackend struct {
	backend.Backend
}

func (b *tracedBackend) Execute(imgs []*tensor.Tensor, seed int64) ([][]uint8, energy.Report, error) {
	t := activeTracer.Load()
	if t == nil || !t.on.Load() {
		return b.Backend.Execute(imgs, seed)
	}
	start := t.now()
	masks, rep, err := b.Backend.Execute(imgs, seed)
	end := t.now()
	batch := t.ids.Add(1)
	t.record(batch, 0, "backend.batch", start, end)
	for _, img := range imgs {
		if r, ok := t.claimPending(contentKey(img.Data)); ok {
			t.record(r.trace, r.id, "backend.execute", start, end)
		}
	}
	if err == nil {
		bt := &t.backend
		bt.mu.Lock()
		bt.execMS = append(bt.execMS, float64(end-start)/1e6)
		bt.frames += len(imgs)
		bt.busy += time.Duration(end - start)
		bt.simFrames += rep.Frames
		bt.simDur += rep.Duration
		bt.mu.Unlock()
	}
	return masks, rep, err
}

// ---- study segmenter layer ---------------------------------------------

// submitTally accumulates the study tier's Segmenter calls.
type submitTally struct {
	mu       sync.Mutex
	ms       []float64
	inflight int
	lastT    int64
	area     float64 // ∫ in-flight dt, in ns·slices
	firstT   int64
}

// timedSegmenter wraps the server a study service fans slices across,
// timing every Submit and integrating how many are in flight.
type timedSegmenter struct {
	study.Segmenter
	t *tracer
}

func (s *timedSegmenter) Submit(ctx context.Context, img *tensor.Tensor) ([]uint8, error) {
	t := s.t
	if !t.on.Load() {
		return s.Segmenter.Submit(ctx, img)
	}
	key := contentKey(img.Data)
	var parent spanRef
	t.mu.Lock()
	if v, ok := t.sliceVolume[key]; ok && len(t.jobs[v]) > 0 {
		parent = t.jobs[v][0]
	}
	t.mu.Unlock()
	t0 := t.now()
	r := t.start(parent.trace, parent.id, "study.submit")
	t.addPending(key, r)
	s.step(+1)
	mask, err := s.Segmenter.Submit(ctx, img)
	s.step(-1)
	t.dropPending(key, r)
	t.finish(r)
	if err == nil {
		st := &t.submits
		st.mu.Lock()
		st.ms = append(st.ms, float64(t.now()-t0)/1e6)
		st.mu.Unlock()
	}
	return mask, err
}

func (s *timedSegmenter) step(d int) {
	now := s.t.now()
	st := &s.t.submits
	st.mu.Lock()
	if st.lastT == 0 {
		st.firstT = now
	} else {
		st.area += float64(st.inflight) * float64(now-st.lastT)
	}
	st.inflight += d
	st.lastT = now
	st.mu.Unlock()
}
