package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"seneca/internal/study"
)

// volumeSample is one completed volume: its turnaround and final mask.
type volumeSample struct {
	volume     int
	jobID      string
	turnaround time.Duration
	slices     int
	mask       []byte // study: the NIfTI mask download; fan-out: stacked slice masks
	err        error
}

// volumeLog is the record of one volume phase.
type volumeLog struct {
	samples []volumeSample
	wall    time.Duration // phase start to last completion, summed over merged phases
}

// merge appends another phase's volumes.
func (l *volumeLog) merge(o *volumeLog) {
	l.samples = append(l.samples, o.samples...)
	l.wall += o.wall
}

// turnarounds returns the turnaround (s) of every completed volume.
func (l *volumeLog) turnarounds() []float64 {
	var out []float64
	for _, s := range l.samples {
		if s.err == nil {
			out = append(out, s.turnaround.Seconds())
		}
	}
	return out
}

// jobPoll is how often a client polls a volume job's state.
const jobPoll = 5 * time.Millisecond

// sliceParallel mirrors the study tier's default in-flight slices per job,
// so the client-side fan-out loads the batcher the way a study job does.
const sliceParallel = 4

// runVolumes keeps `outstanding` volumes in flight until stop is closed
// and returns once every started volume has finished. Volumes are taken
// from the pool round-robin starting at an offset drawn from seed.
func runVolumes(ctx context.Context, d *deployment, in *inputs, seed int64, stop <-chan struct{},
	outstanding int, hooks *reqHooks) *volumeLog {
	log := &volumeLog{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	next := int(seed % int64(len(in.volumes)))
	if next < 0 {
		next += len(in.volumes)
	}
	for c := 0; c < outstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				v := next
				next = (next + 1) % len(in.volumes)
				mu.Unlock()
				t0 := time.Since(start)
				var s volumeSample
				if d.svc != nil {
					s = studyVolume(ctx, d, in, v, hooks)
				} else {
					s = fanOutVolume(ctx, d, in, v, hooks)
				}
				s.turnaround = time.Since(start) - t0
				mu.Lock()
				log.samples = append(log.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	log.wall = time.Since(start)
	return log
}

// studyVolume posts one volume to the study routes, waits for the job to
// finish and downloads its mask.
func studyVolume(ctx context.Context, d *deployment, in *inputs, v int, hooks *reqHooks) volumeSample {
	vol := in.volumes[v]
	s := volumeSample{volume: v, slices: vol.nz}
	span := hooks.beginJob(v)
	defer hooks.endJob(span)
	req := httptest.NewRequest(http.MethodPost, "/v1/volumes", bytes.NewReader(vol.body)).WithContext(ctx)
	req.Header.Set("Content-Type", vol.contentType)
	rec := httptest.NewRecorder()
	d.front.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		s.err = fmt.Errorf("submit: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return s
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.jobID = ack.ID
	for {
		j, ok := d.svc.Store().Get(ack.ID)
		if !ok {
			s.err = fmt.Errorf("job %s vanished", ack.ID)
			return s
		}
		if j.State == study.StateFailed {
			s.err = fmt.Errorf("job %s failed: %s", ack.ID, j.Error)
			return s
		}
		if j.State == study.StateDone {
			if j.Report == nil {
				s.err = fmt.Errorf("job %s done without a report", ack.ID)
				return s
			}
			break
		}
		select {
		case <-ctx.Done():
			s.err = ctx.Err()
			return s
		case <-time.After(jobPoll):
		}
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/volumes/"+ack.ID+"/mask", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	d.front.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		s.err = fmt.Errorf("mask download: status %d", rec.Code)
		return s
	}
	s.mask = masks.intern(rec.Body.Bytes())
	return s
}

// fanOutVolume segments one volume through the slice front door with
// sliceParallel slices in flight, the way a study job fans out, and stacks
// the masks in axial order.
func fanOutVolume(ctx context.Context, d *deployment, in *inputs, v int, hooks *reqHooks) volumeSample {
	vol := in.volumes[v]
	s := volumeSample{volume: v, slices: vol.nz, mask: make([]byte, modelSize*modelSize*vol.nz)}
	span := hooks.beginJob(v)
	sem := make(chan struct{}, sliceParallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for z, idx := range vol.slices {
		sem <- struct{}{}
		wg.Add(1)
		go func(z, idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			id := hooks.beginSlice(span, idx)
			res := postSlice(ctx, d.front, in.slices[idx].body, tierBatch, 0)
			hooks.end(id)
			if res.err != nil {
				mu.Lock()
				if s.err == nil {
					s.err = fmt.Errorf("slice %d: %w", z, res.err)
				}
				mu.Unlock()
				return
			}
			copy(s.mask[z*modelSize*modelSize:], res.mask)
		}(z, idx)
	}
	wg.Wait()
	s.mask = masks.intern(s.mask)
	hooks.endJob(span)
	return s
}
