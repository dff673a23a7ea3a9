package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{10, 0, false},
		{11, 9, true},
		{75, 86, true},
		{240, 95, true},
		{999, 98, true},
		{1000, 99, true},
		{5000, 99, true},
	} {
		values := make([]float64, tc.n)
		for i := range values {
			values[i] = float64(tc.n - i) // reversed: the function must sort
		}
		got, ok := tailPercentile(values)
		if ok != tc.ok || got.N != tc.n {
			t.Fatalf("n=%d: ok=%v N=%d, want ok=%v N=%d", tc.n, ok, got.N, tc.ok, tc.n)
		}
		if !ok {
			continue
		}
		if got.Pct != tc.wantPct {
			t.Errorf("n=%d: p%g, want p%g", tc.n, got.Pct, tc.wantPct)
		}
		beyond := 0
		for _, v := range values {
			if v > got.Value {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%g=%g has %d samples beyond it, want ≥%d", tc.n, got.Pct, got.Value, beyond, tailBeyond)
		}
		// The next whole percentile up must not also keep ten beyond
		// (unless capped at p99): the choice is the highest that does.
		if got.Pct < 99 && float64(tc.n)*(1-(got.Pct+1)/100) >= tailBeyond {
			t.Errorf("n=%d: p%g is not the highest percentile with %d beyond", tc.n, got.Pct, tailBeyond)
		}
	}
}

func TestTailPercentileCountsFailuresAsMisses(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = 10
	}
	for i := 0; i < 15; i++ {
		values[i] = math.Inf(1)
	}
	got, _ := tailPercentile(values)
	if !math.IsInf(got.Value, 1) {
		t.Fatalf("p%g = %g with 15%% failures, want +Inf", got.Pct, got.Value)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	const rate, d = 40.0, 6 * time.Second
	a, b := schedule(7, rate, d), schedule(7, rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, rate, d)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 240 {
		t.Fatalf("%d arrivals, want rate×d = 240", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] < 0 {
		t.Fatal("arrivals not ordered from the phase start")
	}
	if a[len(a)-1] != d {
		t.Fatalf("last arrival at %v, want exactly %v", a[len(a)-1], d)
	}
	// Exponential gaps: the coefficient of variation of a Poisson
	// process's gaps is 1; a fixed-interval schedule would give 0.
	var gaps []float64
	prev := time.Duration(0)
	for _, x := range a {
		gaps = append(gaps, float64(x-prev))
		prev = x
	}
	m := mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / m; cv < 0.7 || cv > 1.3 {
		t.Fatalf("gap coefficient of variation %.2f, want ≈1 for Poisson arrivals", cv)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]int, 200)
	for i := range flat {
		flat[i] = 3 + i%8 // the batcher's sawtooth, within one micro-batch
	}
	ramp := make([]int, 200)
	for i := range ramp {
		ramp[i] = i / 4 // +25 requests per second of 10 ms ticks
	}
	for _, tc := range []struct {
		name    string
		backlog []int
		want    bool
	}{
		{"flat", flat, false},
		{"ramp", ramp, true},
		{"too short", []int{0, 50, 100}, false},
		{"drains", []int{0, 20, 20, 20, 20, 5, 2, 0}, false},
	} {
		if got := backlogGrowing(tc.backlog); got != tc.want {
			q2, q4, _ := backlogQuarters(tc.backlog)
			t.Errorf("%s: growing=%v (q2 %.1f, q4 %.1f), want %v", tc.name, got, q2, q4, tc.want)
		}
	}
}

func TestLittleRate(t *testing.T) {
	// Eight clients at a mean of 100 ms sustain 80 req/s; with one of the
	// five sent requests failed, 64 of them succeed.
	if got := littleRate(8, []float64{50, 100, 150, 100}, 5); math.Abs(got-64) > 1e-9 {
		t.Errorf("littleRate = %g, want 64", got)
	}
	if got := littleRate(8, nil, 3); got != 0 {
		t.Errorf("littleRate with nothing served = %g, want 0", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "frontdoor", Start: 0, End: 100},
		// Two overlapping children cover 10..50 together (40), and one
		// runs past the parent's end, so only 90..100 (10) counts.
		{Trace: 1, ID: 2, Parent: 1, Name: "backend.execute", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "backend.execute", Start: 20, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "backend.execute", Start: 90, End: 120},
		// A span of another request is not a child.
		{Trace: 5, ID: 5, Name: "frontdoor", Start: 0, End: 100},
	}
	if got := covered(spans[0], spans[1:4]); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	st := selfTimes(spans)
	fd := st["frontdoor"]
	if fd[0] != 2 {
		t.Fatalf("frontdoor count %v, want 2", fd[0])
	}
	// Mean self: (100-50 + 100) / 2 = 75 ns.
	if want := 75.0 / 1e6; math.Abs(fd[2]-want) > 1e-12 {
		t.Fatalf("frontdoor mean self %g ms, want %g", fd[2], want)
	}
	if ex := st["backend.execute"]; ex[2] != ex[1] {
		t.Fatalf("leaf spans: self %g != duration %g", ex[2], ex[1])
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "slice_p50_ms", "study.stage_ms.infer", "2x", "fleet-tiers"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "stage{infer}", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "req/s", "FPS/W", "%", "1/s", "GMAC/s"} {
		if !validUnit(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "frames per s", "0123456789abcdefg"} {
		if validUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
	// Every name the benchmark can print passes the grammar.
	m := map[string]metric{}
	for _, k := range endToEndOrder {
		m[k] = metric{1, "s"}
	}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{1, lm.unit}
	}
	for k, v := range tracingOverhead(m, m) {
		m[k] = v
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q breaks the grammar", w.name)
		}
	}
	if err := checkNames(m); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads and the same metrics, with the units printed.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		cw, err := workloadByName(w.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
			continue
		}
		if w.Why != cw.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the code %q", w.Name, w.Why, cw.why)
		}
	}
	units := map[string]string{
		"setup_s": "s", "slice_p50_ms": "ms", "slice_p99_ms": "ms", "slice_capacity_rps": "req/s",
		"volume_p50_s": "s", "volume_slices_per_s": "slices/s", "served_ratio": "ratio",
		"sim_fps": "frames/s", "sim_fps_per_watt": "FPS/W", "peak_heap_mb": "MiB",
	}
	if len(spec.EndToEnd) != len(endToEndOrder) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEndOrder))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndOrder[i] || m.Unit != units[m.Name] {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, endToEndOrder[i], units[endToEndOrder[i]])
		}
	}
	layers := append([]layerMetric(nil), layerMetrics...)
	for _, k := range []string{"trace.overhead.slice_capacity_rps", "trace.overhead.slice_p50_ms", "trace.overhead.volume_p50_s"} {
		layers = append(layers, layerMetric{name: k})
	}
	overhead := tracingOverhead(map[string]metric{"slice_p50_ms": {0, "ms"}, "slice_capacity_rps": {0, "req/s"}, "volume_p50_s": {0, "s"}}, nil)
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		want := layers[i]
		if want.unit == "" {
			want.unit = overhead[want.name].Unit
		}
		if m.Name != want.name || m.Unit != want.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, want.name, want.unit)
		}
	}
}
