package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Client-side request tiers (the cluster front door's X-Seneca-Tier).
const (
	tierInteractive = "interactive"
	tierBatch       = "batch"
)

// maxClients bounds the goroutines that carry open-loop requests. It is
// well above what the served queues can hold (64 per node plus a batch in
// flight), so the bound only bites when the system is far past overload,
// and then the generator's lag shows it.
const maxClients = 256

// schedule returns n arrival offsets for a Poisson process of the given
// rate over d, drawn from seed. The exponential gaps are rescaled so the
// last arrival lands exactly at d: every seed offers exactly n requests in
// d, and the seed only moves where they fall.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	n := int(rate*d.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	acc := 0.0
	for i, g := range gaps {
		acc += g
		out[i] = time.Duration(acc / total * float64(d))
	}
	return out
}

// result is the client's view of one request: the mask and the
// micro-batch occupancy it rode in, or why it failed (refusals included).
type result struct {
	mask  []byte
	batch int // X-Seneca-Batch
	err   error
}

// postSlice sends one octet-stream slice through an in-process handler.
// deadline, when positive, rides as X-Seneca-Deadline-Ms.
func postSlice(ctx context.Context, h http.Handler, body []byte, tier string, deadline time.Duration) result {
	req := httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/octet-stream")
	if tier == tierBatch {
		req.Header.Set("X-Seneca-Tier", tierBatch)
	}
	if deadline > 0 {
		req.Header.Set("X-Seneca-Deadline-Ms", strconv.FormatInt(deadline.Milliseconds(), 10))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return result{err: fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))}
	}
	batch, _ := strconv.Atoi(rec.Header().Get("X-Seneca-Batch"))
	return result{mask: masks.intern(rec.Body.Bytes()), batch: batch}
}

// maskInterner keeps one copy of each distinct mask the run received, so
// holding every response for the oracle costs memory per distinct mask,
// not per request, and the client's retention does not inflate the heap
// the benchmark reports.
type maskInterner struct {
	mu sync.Mutex
	m  map[string][]byte
}

var masks = &maskInterner{m: map[string][]byte{}}

func (mi *maskInterner) intern(b []byte) []byte {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if m, ok := mi.m[string(b)]; ok {
		return m
	}
	m := append([]byte(nil), b...)
	mi.m[string(m)] = m
	return m
}

// sample is one completed request, timed from when it was due: its
// scheduled arrival in an open loop, its send in a closed loop.
type sample struct {
	slice   int // index into inputs.slices
	due     time.Duration
	lag     time.Duration // how late the generator dispatched it (open loop)
	latency time.Duration // completion minus due
	res     result
}

// stream is one open-loop request stream: a rate, a tier and a deadline.
type stream struct {
	name     string
	rate     float64
	tier     string
	deadline time.Duration
}

// phaseLog holds every sample of one timed phase, per stream.
type phaseLog struct {
	name     string
	duration time.Duration
	streams  map[string][]sample
	backlog  []int // in-flight interactive requests, sampled every backlogTick
}

const backlogTick = 10 * time.Millisecond

// runOpenLoop drives the streams against h for d, each request picking a
// slice of the inputs from the seed. It returns once every request sent
// has completed.
func runOpenLoop(ctx context.Context, h http.Handler, in *inputs, seed int64, name string,
	d time.Duration, streams []stream, hooks *reqHooks) *phaseLog {
	log := &phaseLog{name: name, duration: d, streams: map[string][]sample{}}
	type arrival struct {
		stream int
		due    time.Duration
		slice  int
	}
	var arrivals []arrival
	for si, st := range streams {
		rng := rand.New(rand.NewSource(seed*7919 + int64(si)))
		for _, due := range schedule(seed*104729+int64(si)*31+int64(len(name)), st.rate, d) {
			arrivals = append(arrivals, arrival{stream: si, due: due, slice: rng.Intn(len(in.slices))})
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].due < arrivals[j].due })

	results := make([][]sample, len(streams))
	var mu sync.Mutex
	var inflight atomic.Int64
	sem := make(chan struct{}, maxClients)
	var wg sync.WaitGroup
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(backlogTick)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				log.backlog = append(log.backlog, int(inflight.Load()))
			}
		}
	}()
	for _, a := range arrivals {
		if wait := time.Until(start.Add(a.due)); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		lag := time.Since(start) - a.due
		st := streams[a.stream]
		if st.tier == tierInteractive {
			inflight.Add(1)
		}
		wg.Add(1)
		go func(a arrival, lag time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			id := hooks.begin(st.name, a.slice)
			res := postSlice(ctx, h, in.slices[a.slice].body, st.tier, st.deadline)
			lat := time.Since(start) - a.due
			hooks.end(id)
			if st.tier == tierInteractive {
				inflight.Add(-1)
			}
			mu.Lock()
			results[a.stream] = append(results[a.stream], sample{slice: a.slice, due: a.due, lag: lag, latency: lat, res: res})
			mu.Unlock()
		}(a, lag)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
	for si, st := range streams {
		sort.Slice(results[si], func(i, j int) bool { return results[si][i].due < results[si][j].due })
		log.streams[st.name] = results[si]
	}
	return log
}

// runClosedLoop keeps clients requests of stream st in flight against h
// for d: each client sends its next slice as soon as its previous one
// returns, so the backlog is bounded by construction and the completion
// rate is the rate the system sustains. Requests are timed from when they
// were sent. It returns once every request sent has completed.
func runClosedLoop(ctx context.Context, h http.Handler, in *inputs, seed int64, name string,
	d time.Duration, clients int, st stream, hooks *reqHooks) *phaseLog {
	log := &phaseLog{name: name, duration: d, streams: map[string][]sample{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				slice := rng.Intn(len(in.slices))
				id := hooks.begin(st.name, slice)
				res := postSlice(ctx, h, in.slices[slice].body, st.tier, st.deadline)
				lat := time.Since(start) - sent
				hooks.end(id)
				mu.Lock()
				log.streams[st.name] = append(log.streams[st.name], sample{slice: slice, due: sent, latency: lat, res: res})
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(seed*7919 + int64(c))))
	}
	wg.Wait()
	ss := log.streams[st.name]
	sort.Slice(ss, func(i, j int) bool { return ss[i].due < ss[j].due })
	return log
}

// backlogGrowing reports whether in-flight requests kept piling up over a
// phase: the mean backlog over the last quarter exceeds the second
// quarter's by more than a full micro-batch and by more than half. The
// first quarter is skipped because every phase starts from an empty
// system; the micro-batch of slack absorbs the batcher's own sawtooth.
func backlogGrowing(backlog []int) bool {
	q2, q4, ok := backlogQuarters(backlog)
	return ok && q4 > q2+backlogSlack && q4 > 1.5*q2
}

// backlogSlack is one full micro-batch (MaxBatch) of requests.
const backlogSlack = 8

// backlogQuarters returns the mean backlog over the second and the last
// quarter of a phase; ok is false for phases too short to judge.
func backlogQuarters(backlog []int) (q2, q4 float64, ok bool) {
	n := len(backlog)
	if n < 8 {
		return 0, 0, false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[n/4 : n/2]), mean(backlog[3*n/4:]), true
}
