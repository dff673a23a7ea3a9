package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"mime/multipart"

	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/phantom"
	"seneca/internal/serve"
)

// Volume geometry of the phantom CT studies: 256×256×34. The generator
// jitters each patient's slice count ±25% around its nominal count, so
// volumes are generated at 46 nominal (35..58 slices) and cropped to the
// central 34: every seed then sends volumes of the same size, and volume
// turnaround compares across seeds.
const (
	volumeSize      = 256
	volumeSlices    = 34
	generatedSlices = 46
)

// slice is one preprocessed 64×64 model input and its request body.
type slice struct {
	data   []float32
	body   []byte // application/octet-stream /v1/segment body
	volume int    // index of the source volume in inputs.volumes
	key    uint64 // content hash of data
}

// volume is one phantom study: the NIfTI submission body (CT plus ground
// truth, multipart) and the indices of its preprocessed slices.
type volume struct {
	nz          int
	body        []byte
	contentType string
	slices      []int
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	volumes []volume
	slices  []slice
}

// makeInputs generates n phantom volumes from seed and preprocesses every
// axial slice to the model geometry exactly as the study pipeline does, so
// slice requests and volume jobs see the same images.
func makeInputs(seed int64, n int, withNIfTI bool) (*inputs, error) {
	in := &inputs{}
	opt := phantom.Options{Size: volumeSize, Slices: generatedSlices, Seed: seed, NoiseSigma: 12}
	for p := 0; p < n; p++ {
		v := phantom.Generate(p, opt)
		v.CT, v.Labels = cropZ(v.CT, volumeSlices), cropZ(v.Labels, volumeSlices)
		// Slices are cut from the CT as the study tier reads it back from
		// NIfTI (int16 voxels), so a study job and a slice request of the
		// same slice send the model identical bytes.
		ct, err := roundTrip(v.CT)
		if err != nil {
			return nil, err
		}
		v.CT = ct
		vol := volume{nz: v.CT.Nz}
		for z := 0; z < v.CT.Nz; z++ {
			data := imaging.Preprocess(v.CT.Slice(z), v.CT.Ny, v.CT.Nx, modelSize)
			vol.slices = append(vol.slices, len(in.slices))
			in.slices = append(in.slices, slice{
				data:   data,
				body:   serve.EncodeInput(data),
				volume: p,
				key:    contentKey(data),
			})
		}
		if withNIfTI {
			body, ct, err := studyBody(v)
			if err != nil {
				return nil, err
			}
			vol.body, vol.contentType = body, ct
		}
		in.volumes = append(in.volumes, vol)
	}
	return in, nil
}

// studyBody encodes a phantom study as the multipart upload the study API
// takes: the CT volume as "ct" and its labels as "gt".
func studyBody(v *phantom.Volume) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name string
		vol  *nifti.Volume
	}{{"ct", v.CT}, {"gt", v.Labels}} {
		w, err := mw.CreateFormFile(part.name, part.name+".nii")
		if err != nil {
			return nil, "", err
		}
		if err := nifti.Write(w, part.vol); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// contentKey identifies an image by its exact float32 bits.
func contentKey(data []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// cropZ keeps the central nz axial slices of v.
func cropZ(v *nifti.Volume, nz int) *nifti.Volume {
	out := nifti.NewVolume(v.Nx, v.Ny, nz, v.Datatype)
	out.PixDim = v.PixDim
	plane := v.Nx * v.Ny
	z0 := (v.Nz - nz) / 2
	copy(out.Data, v.Data[z0*plane:(z0+nz)*plane])
	return out
}

// roundTrip writes v as NIfTI and reads it back.
func roundTrip(v *nifti.Volume) (*nifti.Volume, error) {
	var buf bytes.Buffer
	if err := nifti.Write(&buf, v); err != nil {
		return nil, err
	}
	return nifti.Read(&buf)
}
