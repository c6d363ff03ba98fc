package cnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jdvs/internal/imaging"
	"jdvs/internal/vecmath"
)

func genImage(rng *rand.Rand, base []float32, noise float64) *imaging.Image {
	return imaging.Generate(rng, base, 0, imaging.GenConfig{Noise: noise, PayloadBytes: 64})
}

func randLatent(rng *rand.Rand) []float32 {
	v := make([]float32, imaging.LatentDim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestExtractUnitNorm(t *testing.T) {
	e := New(Config{Dim: 32, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		f, err := e.Extract(genImage(rng, randLatent(rng), 0.1))
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != 32 {
			t.Fatalf("dim = %d", len(f))
		}
		if n := vecmath.Norm(f); math.Abs(float64(n)-1) > 1e-5 {
			t.Fatalf("norm = %v, want 1", n)
		}
	}
}

// TestExtractGolden pins Extract's output bits for a fixed seed and image,
// so a change to how the passes are computed cannot change the features.
func TestExtractGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64; other architectures may fuse multiply-adds")
	}
	golden := []uint32{
		0xbeb19b7d, 0x3d98e4ed, 0xbc0531f4, 0xbbeab15e,
		0xbee1c0d9, 0xbe3e6b65, 0x3eda4d79, 0x3e8abfd5,
		0xbea59bec, 0xbc872144, 0xbe5bdf53, 0xbe22541a,
		0xbecbcf23, 0x3e029afe, 0xbe19a4de, 0x3e031432,
	}
	rng := rand.New(rand.NewSource(11))
	img := genImage(rng, randLatent(rng), 0.1)
	f, err := New(Config{Dim: 16, Seed: 5, WorkFactor: 128}).Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if math.Float32bits(v) != golden[i] {
			t.Fatalf("feature[%d] = %#08x, golden %#08x", i, math.Float32bits(v), golden[i])
		}
	}
}

// TestExtractAllocs bounds Extract to the returned feature plus one
// scratch buffer shared by all of its WorkFactor passes.
func TestExtractAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	img := genImage(rng, randLatent(rng), 0.1)
	e := New(Config{Dim: 64, Seed: 5, WorkFactor: 128})
	if n := testing.AllocsPerRun(20, func() { _, _ = e.Extract(img) }); n > 2 {
		t.Fatalf("Extract makes %.0f allocations at WorkFactor 128, want <= 2", n)
	}
}

// TestExtractBytesAllocs: extracting from an encoded blob allocates the
// feature and nothing else — the decoded image stays on the stack and its
// payload is never copied.
func TestExtractBytesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	blob := imaging.Generate(rng, randLatent(rng), 0, imaging.GenConfig{PayloadBytes: 2048}).Encode()
	e := New(Config{Dim: 64, Seed: 5})
	want, err := e.Extract(mustDecode(t, blob))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ExtractBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("ExtractBytes feature %d = %v, Extract %v", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = e.ExtractBytes(blob) }); n > 1 {
		t.Fatalf("ExtractBytes makes %.0f allocations, want 1", n)
	}
}

func mustDecode(t *testing.T, blob []byte) *imaging.Image {
	t.Helper()
	im, err := imaging.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestExtractNil(t *testing.T) {
	e := New(Config{Seed: 1})
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

// TestLocality is the property the whole search stack depends on: photos
// of the same product embed much closer together than photos of different
// products.
func TestLocality(t *testing.T) {
	e := New(Config{Dim: 64, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	var same, diff []float64
	for trial := 0; trial < 60; trial++ {
		baseA := randLatent(rng)
		baseB := randLatent(rng)
		fa1, err := e.Extract(genImage(rng, baseA, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		fa2, err := e.Extract(genImage(rng, baseA, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := e.Extract(genImage(rng, baseB, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		same = append(same, float64(vecmath.L2Squared(fa1, fa2)))
		diff = append(diff, float64(vecmath.L2Squared(fa1, fb)))
	}
	meanSame, meanDiff := mean(same), mean(diff)
	if meanSame*5 > meanDiff {
		t.Fatalf("locality too weak: same-product dist %v vs different %v", meanSame, meanDiff)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestDeterministicAcrossInstances: extractors with the same seed embed
// identically — blenders and indexers must agree byte-for-byte.
func TestDeterministicAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := genImage(rng, randLatent(rng), 0.1)
	e1 := New(Config{Dim: 48, Seed: 77})
	e2 := New(Config{Dim: 48, Seed: 77})
	f1, err := e1.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := e2.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("component %d differs: %v vs %v", i, f1[i], f2[i])
		}
	}
	// Different seeds differ.
	e3 := New(Config{Dim: 48, Seed: 78})
	f3, err := e3.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	identical := true
	for i := range f1 {
		if f1[i] != f3[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestExtractBytes(t *testing.T) {
	e := New(Config{Dim: 16, Seed: 6})
	rng := rand.New(rand.NewSource(7))
	img := genImage(rng, randLatent(rng), 0.1)
	fromImg, err := e.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := e.ExtractBytes(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromImg {
		if fromImg[i] != fromBytes[i] {
			t.Fatal("ExtractBytes disagrees with Extract")
		}
	}
	if _, err := e.ExtractBytes([]byte("junk")); err == nil {
		t.Fatal("garbage blob accepted")
	}
}

func TestCallsCounter(t *testing.T) {
	e := New(Config{Dim: 16, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	img := genImage(rng, randLatent(rng), 0.1)
	for i := 0; i < 5; i++ {
		if _, err := e.Extract(img); err != nil {
			t.Fatal(err)
		}
	}
	if e.Calls() != 5 {
		t.Fatalf("Calls = %d, want 5", e.Calls())
	}
}

func TestDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	img := genImage(rng, randLatent(rng), 0.1)
	d, err := Detect(img)
	if err != nil {
		t.Fatal(err)
	}
	if d.X != img.ObjX || d.Y != img.ObjY || d.W != img.ObjW || d.H != img.ObjH {
		t.Fatalf("Detect = %+v, image window %+v", d, img)
	}
	if _, err := Detect(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(0, []float32{1}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewClassifier(4, []float32{1, 2, 3}); err == nil {
		t.Fatal("ragged prototype matrix accepted")
	}
	c, err := NewClassifier(2, []float32{0, 0, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Categories() != 2 {
		t.Fatalf("Categories = %d", c.Categories())
	}
	if _, err := c.Classify([]float32{1}); err == nil {
		t.Fatal("wrong-dim feature accepted")
	}
}

// TestClassifierAccuracy: features of category-prototype images classify
// back to their category with high accuracy.
func TestClassifierAccuracy(t *testing.T) {
	const nCats = 8
	e := New(Config{Dim: 64, Seed: 11})
	rng := rand.New(rand.NewSource(12))

	protoLatents := make([][]float32, nCats)
	protoFeats := make([]float32, 0, nCats*64)
	for c := 0; c < nCats; c++ {
		protoLatents[c] = randLatent(rng)
		f, err := e.Extract(genImage(rng, protoLatents[c], 1e-4))
		if err != nil {
			t.Fatal(err)
		}
		protoFeats = append(protoFeats, f...)
	}
	cls, err := NewClassifier(64, protoFeats)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for c := 0; c < nCats; c++ {
		for i := 0; i < 25; i++ {
			f, err := e.Extract(genImage(rng, protoLatents[c], 0.15))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cls.Classify(f)
			if err != nil {
				t.Fatal(err)
			}
			if int(got) == c {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("classifier accuracy %.2f, want >= 0.9", acc)
	}
}

// TestWorkFactorCost: higher WorkFactor must cost measurably more work
// (the reuse-vs-extract trade-off depends on it). Checked via extra passes
// producing identical embeddings, not wall time (timing is flaky in CI).
func TestWorkFactorSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	img := genImage(rng, randLatent(rng), 0.1)
	fast := New(Config{Dim: 32, Seed: 14, WorkFactor: 0})
	slow := New(Config{Dim: 32, Seed: 14, WorkFactor: 8})
	f1, err := fast.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := slow.Extract(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("WorkFactor changed the embedding")
		}
	}
}
