package quant

import (
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
)

// TestExecutorReuseBitIdentical runs one executor across many frames and
// checks every mask against a fresh executor. Arena buffers are reused dirty
// between frames, so any kernel that reads stale state (unzeroed padding,
// uncleaned accumulators) diverges here.
func TestExecutorReuseBitIdentical(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, img := range calib {
			got, err := reused.ExecuteLabels(img)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewExecutor(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ExecuteLabels(img)
			if err != nil {
				t.Fatal(err)
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("round %d frame %d: reused arena diverges at pixel %d: %d vs %d", round, i, p, got[p], want[p])
				}
			}
		}
	}
}

// TestExecuteLabelsSteadyStateAllocs pins the arena's purpose: after the
// pool is warm, an INT8 inference allocates only the returned mask plus a
// handful of closures — not a fresh buffer per layer.
func TestExecuteLabelsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := par.MaxWorkers()
	par.SetMaxWorkers(1) // goroutine spawn costs would otherwise dominate
	defer par.SetMaxWorkers(old)
	img := calib[0]
	if _, err := q.ExecuteLabels(img); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := q.ExecuteLabels(img); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("steady-state INT8 inference does %v allocs, want ≤48", allocs)
	}
}

// TestNewExecutorRejectsMalformedGraph checks the constructor fails cleanly
// instead of panicking inside a kernel.
func TestNewExecutorRejectsMalformedGraph(t *testing.T) {
	q := &QGraph{
		Nodes: []*QNode{{
			Name: "conv", Kind: graph.KindConv,
			Inputs: []string{"missing"},
			Kernel: 3, Stride: 1, Pad: 1, OutC: 4,
			OutShape: [3]int{4, 8, 8},
		}},
		OutputName: "conv",
	}
	q.RebuildIndex()
	if _, err := NewExecutor(q); err == nil {
		t.Fatal("NewExecutor accepted a graph with a dangling input")
	}
}
