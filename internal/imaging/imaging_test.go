package imaging

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testLatent(seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, LatentDim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestGenerateEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := Generate(rng, testLatent(2), 7, GenConfig{PayloadBytes: 512})
	got, err := Decode(im.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Width != im.Width || got.Height != im.Height ||
		got.ObjX != im.ObjX || got.ObjY != im.ObjY ||
		got.ObjW != im.ObjW || got.ObjH != im.ObjH ||
		got.Category != im.Category {
		t.Fatalf("header mismatch: %+v vs %+v", got, im)
	}
	if got.Latent != im.Latent {
		t.Fatal("latent mismatch after roundtrip")
	}
	if len(got.Payload) != len(im.Payload) {
		t.Fatalf("payload length %d, want %d", len(got.Payload), len(im.Payload))
	}
	for i := range got.Payload {
		if got.Payload[i] != im.Payload[i] {
			t.Fatal("payload corrupted")
		}
	}
}

func TestObjectWindowInsideFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		im := Generate(rng, testLatent(4), 0, GenConfig{})
		if int(im.ObjX)+int(im.ObjW) > int(im.Width) || int(im.ObjY)+int(im.ObjH) > int(im.Height) {
			t.Fatalf("object window escapes frame: %+v", im)
		}
		if im.ObjW == 0 || im.ObjH == 0 {
			t.Fatalf("degenerate object window: %+v", im)
		}
	}
}

func TestGenerateNoiseControlsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := testLatent(6)
	tight := Generate(rng, base, 0, GenConfig{Noise: 0.01})
	loose := Generate(rng, base, 0, GenConfig{Noise: 1.0})
	var dTight, dLoose float64
	for i := range base {
		dt := float64(tight.Latent[i] - base[i])
		dl := float64(loose.Latent[i] - base[i])
		dTight += dt * dt
		dLoose += dl * dl
	}
	if dTight >= dLoose {
		t.Fatalf("noise scaling broken: tight %v >= loose %v", dTight, dLoose)
	}
}

func TestGeneratePanicsOnBadLatent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong latent dim")
		}
	}()
	Generate(rand.New(rand.NewSource(1)), make([]float32, LatentDim-1), 0, GenConfig{})
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := Generate(rng, testLatent(8), 3, GenConfig{PayloadBytes: 128}).Encode()
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", valid[:8]},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"truncated payload", valid[:len(valid)-5]},
		{"extended payload", append(append([]byte(nil), valid...), 1, 2, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); err == nil {
				t.Error("corrupt blob accepted")
			}
		})
	}
}

// TestDecodeIntoAliasesPayload: DecodeInto reads the same image as Decode
// and rejects the same corrupt blobs, but leaves the payload in the input
// bytes, where Decode copies it out.
func TestDecodeIntoAliasesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := Generate(rng, testLatent(10), 5, GenConfig{PayloadBytes: 256}).Encode()
	owned, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var view Image
	if err := DecodeInto(&view, b); err != nil {
		t.Fatal(err)
	}
	if view.Width != owned.Width || view.ObjH != owned.ObjH || view.Category != owned.Category || view.Latent != owned.Latent {
		t.Fatalf("DecodeInto %+v, Decode %+v", view, owned)
	}
	if string(view.Payload) != string(owned.Payload) {
		t.Fatal("payloads differ")
	}
	if &view.Payload[0] != &b[len(b)-len(view.Payload)] {
		t.Fatal("DecodeInto copied the payload")
	}
	if &owned.Payload[0] == &b[len(b)-len(owned.Payload)] {
		t.Fatal("Decode aliased the payload")
	}
	if err := DecodeInto(&view, b[:len(b)-1]); err == nil {
		t.Fatal("DecodeInto accepted a truncated blob")
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(9)), testLatent(10), 1, GenConfig{})
	b := Generate(rand.New(rand.NewSource(9)), testLatent(10), 1, GenConfig{})
	if a.Latent != b.Latent || a.ObjX != b.ObjX {
		t.Fatal("same seed produced different images")
	}
}
