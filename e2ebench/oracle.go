package main

import (
	"bytes"
	"context"
	"fmt"

	"seneca/internal/nifti"
	"seneca/internal/tensor"
)

// oracle checks every mask a run received, after the timed phases.
type oracle struct {
	d      *deployment
	in     *inputs
	slices map[int][]byte // slice index → Program.Run mask
	vols   map[int][]byte // volume index → unloaded reference job's mask
	props  inputProps
}

// inputProps are measured properties of a run's inputs and reference
// masks, printed with every run and quoted beside the workload table.
type inputProps struct {
	RepeatedShare float64   `json:"repeated_slice_share"`    // requests whose slice was sent before
	ClassShare    []float64 `json:"class_share"`             // reference-mask voxels per class
	RemovedShare  []float64 `json:"removed_share,omitempty"` // per class: voxels the largest-component filter removed (study)
}

func newOracle(d *deployment, in *inputs) *oracle {
	return &oracle{d: d, in: in, slices: map[int][]byte{}, vols: map[int][]byte{}}
}

// sliceRef is the reference mask of one slice: Program.Run on the same
// input, computed once per distinct slice.
func (o *oracle) sliceRef(idx int) ([]byte, error) {
	if m, ok := o.slices[idx]; ok {
		return m, nil
	}
	img := tensor.FromSlice(append([]float32(nil), o.in.slices[idx].data...), 1, modelSize, modelSize)
	m, err := o.d.prog.Run(img)
	if err != nil {
		return nil, fmt.Errorf("reference run of slice %d: %w", idx, err)
	}
	o.slices[idx] = m
	return m, nil
}

// checkSlices compares every successful sample's mask with its reference
// and returns how many differ.
func (o *oracle) checkSlices(logs []*phaseLog) (wrong int, err error) {
	for _, l := range logs {
		for _, ss := range l.streams {
			for _, s := range ss {
				if s.res.err != nil {
					continue
				}
				ref, err := o.sliceRef(s.slice)
				if err != nil {
					return wrong, err
				}
				if !bytes.Equal(ref, s.res.mask) {
					wrong++
				}
			}
		}
	}
	return wrong, nil
}

// checkVolumes compares every completed volume with its reference: the
// stacked slice references for fan-out volumes, and an unloaded single-job
// pass of the same volume through the study tier for study jobs.
func (o *oracle) checkVolumes(ctx context.Context, l *volumeLog) (wrong int, err error) {
	if l == nil {
		return 0, nil
	}
	for _, s := range l.samples {
		if s.err != nil {
			continue
		}
		var ref []byte
		if o.d.svc != nil {
			if ref, err = o.volumeRef(ctx, s.volume); err != nil {
				return wrong, err
			}
		} else {
			ref = make([]byte, 0, len(s.mask))
			for _, idx := range o.in.volumes[s.volume].slices {
				m, err := o.sliceRef(idx)
				if err != nil {
					return wrong, err
				}
				ref = append(ref, m...)
			}
		}
		if !bytes.Equal(ref, s.mask) {
			wrong++
		}
	}
	return wrong, nil
}

// volumeRef runs one volume alone through the study tier and keeps its
// mask and its postprocess census.
func (o *oracle) volumeRef(ctx context.Context, v int) ([]byte, error) {
	if m, ok := o.vols[v]; ok {
		return m, nil
	}
	s := studyVolume(ctx, o.d, o.in, v, nil)
	if s.err != nil {
		return nil, fmt.Errorf("reference pass of volume %d: %w", v, s.err)
	}
	o.vols[v] = s.mask
	j, _ := o.d.svc.Store().Get(s.jobID)
	mask, err := nifti.Read(bytes.NewReader(s.mask))
	if err != nil {
		return nil, fmt.Errorf("reference mask of volume %d: %w", v, err)
	}
	o.census(mask, j.Removed)
	return s.mask, nil
}

// census accumulates the class shares of a reference mask and the share
// of each class's voxels the largest-component filter removed.
func (o *oracle) census(mask *nifti.Volume, removed []int64) {
	k := o.d.prog.Graph.NumClasses
	if len(o.props.ClassShare) == 0 {
		o.props.ClassShare = make([]float64, k)
		o.props.RemovedShare = make([]float64, k)
	}
	// Accumulate counts in the share slices; normalized by finalProps.
	for _, v := range mask.Data {
		if c := int(v); c >= 0 && c < k {
			o.props.ClassShare[c]++
		}
	}
	for c, r := range removed {
		if c < k {
			o.props.RemovedShare[c] += float64(r)
		}
	}
}

// finalProps normalizes the accumulated census. Without study jobs the
// class shares come from the slice references.
func (o *oracle) finalProps(repeated float64) inputProps {
	if len(o.props.ClassShare) == 0 {
		k := o.d.prog.Graph.NumClasses
		o.props.ClassShare = make([]float64, k)
		for _, m := range o.slices {
			for _, c := range m {
				if int(c) < k {
					o.props.ClassShare[c]++
				}
			}
		}
	}
	p := o.props
	p.RepeatedShare = repeated
	total := 0.0
	for _, n := range p.ClassShare {
		total += n
	}
	for c := range p.ClassShare {
		kept := p.ClassShare[c]
		if c < len(p.RemovedShare) && kept+p.RemovedShare[c] > 0 {
			p.RemovedShare[c] /= kept + p.RemovedShare[c]
		}
		if total > 0 {
			p.ClassShare[c] = kept / total
		}
	}
	return p
}
