// Package cnn is the simulated deep feature extractor.
//
// The production system runs a convolutional network on GPUs to turn a
// product photo into a high-dimensional feature vector, detect the item in
// the picture and identify its category (§2.4). Reproducing that would
// require model weights and cgo inference bindings, so this package
// substitutes a deterministic network with the two properties the
// surrounding system actually depends on:
//
//  1. Locality: visually similar images (nearby latents) map to nearby
//     feature vectors, so ANN recall, IVF clustering and ranking behave
//     like the real pipeline. The embedding is a seeded random projection
//     of the image latent followed by a tanh nonlinearity and L2
//     normalisation — a fixed one-layer network.
//  2. Cost: extraction is by far the most expensive operation in the
//     indexing path, which is why the paper goes to such lengths to reuse
//     features (513M of 521M daily additions reuse cached features, §3.1).
//     The Extractor burns a configurable, deterministic amount of CPU per
//     call so that reuse-vs-extract trade-offs are measurable.
//
// Extractors built with the same seed and dimensions are identical across
// processes, so blenders and indexers extract byte-identical features.
package cnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"jdvs/internal/imaging"
	"jdvs/internal/vecmath"
)

// DefaultDim is the default feature dimensionality.
const DefaultDim = 64

// Config parameterises an Extractor.
type Config struct {
	// Dim is the output feature dimensionality (DefaultDim if 0).
	Dim int
	// Seed derives the projection weights; equal seeds give identical
	// networks.
	Seed int64
	// WorkFactor controls simulated inference cost: the number of extra
	// dummy network passes per extraction. 0 means just the real pass.
	// Each pass is O(Dim·LatentDim) multiply-accumulates.
	WorkFactor int
}

// Extractor is a deterministic feature embedding network. It is immutable
// after construction and safe for concurrent use.
type Extractor struct {
	dim    int
	work   int
	proj   []float32 // dim × LatentDim row-major weights
	bias   []float32
	nCalls atomic.Int64
}

// New builds an extractor from cfg.
func New(cfg Config) *Extractor {
	dim := cfg.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Extractor{
		dim:  dim,
		work: cfg.WorkFactor,
		proj: make([]float32, dim*imaging.LatentDim),
		bias: make([]float32, dim),
	}
	scale := 1 / math.Sqrt(float64(imaging.LatentDim))
	for i := range e.proj {
		e.proj[i] = float32(rng.NormFloat64() * scale)
	}
	for i := range e.bias {
		e.bias[i] = float32(rng.NormFloat64() * 0.01)
	}
	return e
}

// Dim returns the output feature dimensionality.
func (e *Extractor) Dim() int { return e.dim }

// Calls returns the number of Extract invocations, for measuring how often
// the dedup path avoided extraction.
func (e *Extractor) Calls() int64 { return e.nCalls.Load() }

// ErrNilImage is returned when extraction is attempted on a nil image.
var ErrNilImage = errors.New("cnn: nil image")

// Extract embeds the image's content into a unit-norm feature vector.
func (e *Extractor) Extract(im *imaging.Image) ([]float32, error) {
	if im == nil {
		return nil, ErrNilImage
	}
	e.nCalls.Add(1)
	out := make([]float32, e.dim)
	e.forward(out, im.Latent[:])
	// Simulated inference cost: extra forward passes whose results feed a
	// checksum that is folded into nothing — the work cannot be elided.
	var sink float32
	if e.work > 0 {
		tmp := make([]float32, e.dim)
		for w := 0; w < e.work; w++ {
			e.forward(tmp, im.Latent[:])
			sink += tmp[w%e.dim]
		}
	}
	if math.IsNaN(float64(sink)) {
		// Unreachable: tanh output is always finite. The check exists so
		// the compiler cannot prove the dummy passes dead.
		return nil, fmt.Errorf("cnn: numeric fault (sink=%f)", sink)
	}
	return out, nil
}

// ExtractBytes decodes an encoded image blob and embeds it. The decoded
// image lives on the stack and its filler payload is never copied: the
// network reads only the latent. blob is not retained.
func (e *Extractor) ExtractBytes(blob []byte) ([]float32, error) {
	var im imaging.Image
	if err := imaging.DecodeInto(&im, blob); err != nil {
		return nil, fmt.Errorf("cnn: decode before extract: %w", err)
	}
	return e.Extract(&im)
}

// forward runs one network pass over latent into out (len e.dim).
func (e *Extractor) forward(out, latent []float32) {
	for i := 0; i < e.dim; i++ {
		row := e.proj[i*imaging.LatentDim : (i+1)*imaging.LatentDim]
		out[i] = tanh32(vecmath.Dot(row, latent) + e.bias[i])
	}
	vecmath.Normalize(out)
}

func tanh32(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// Detection is the result of running the simulated item detector.
type Detection struct {
	X, Y, W, H uint16
}

// Detect locates the item in the picture. The synthetic image carries its
// object window, so detection reads it out — the downstream contract
// (search operates on the detected item's features) is identical to the
// production detector's.
func Detect(im *imaging.Image) (Detection, error) {
	if im == nil {
		return Detection{}, ErrNilImage
	}
	return Detection{X: im.ObjX, Y: im.ObjY, W: im.ObjW, H: im.ObjH}, nil
}

// Classifier assigns a feature vector to the nearest category prototype —
// the "product category of the item is identified" step of §2.4.
type Classifier struct {
	dim        int
	prototypes []float32 // nCat × dim
}

// NewClassifier builds a nearest-prototype classifier. prototypes is a flat
// row-major matrix of one feature-space prototype per category; category i
// is row i.
func NewClassifier(dim int, prototypes []float32) (*Classifier, error) {
	if dim <= 0 || len(prototypes) == 0 || len(prototypes)%dim != 0 {
		return nil, fmt.Errorf("cnn: bad prototype matrix (%d floats, dim %d)", len(prototypes), dim)
	}
	dup := make([]float32, len(prototypes))
	copy(dup, prototypes)
	return &Classifier{dim: dim, prototypes: dup}, nil
}

// Classify returns the category whose prototype is nearest to feature.
func (c *Classifier) Classify(feature []float32) (uint16, error) {
	if len(feature) != c.dim {
		return 0, fmt.Errorf("cnn: feature dim %d, classifier dim %d", len(feature), c.dim)
	}
	idx, _ := vecmath.NearestCentroid(feature, c.prototypes, c.dim)
	return uint16(idx), nil
}
