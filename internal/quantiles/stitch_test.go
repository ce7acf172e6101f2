package quantiles

import (
	"bytes"
	"math/rand"
	"testing"

	"melissa/internal/enc"
)

// TestEncodeFrozenStitchedMatchesDense: the stitched encode of frozen
// sub-range views must be byte-identical to compacting and encoding the
// dense field they came from — the checkpoint writer's contract — even
// after the live sub-range fields keep folding past the freeze.
func TestEncodeFrozenStitchedMatchesDense(t *testing.T) {
	const cells = 23
	rng := rand.New(rand.NewSource(9))
	f := NewField(cells, 0.05)
	a := make([]float64, cells)
	b := make([]float64, cells)
	fold := func(f *Field, lo, hi int) {
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		f.UpdatePair(a[lo:hi], b[lo:hi])
	}
	for s := 0; s < 40; s++ {
		fold(f, 0, cells)
	}

	for _, bounds := range [][]int{{0, cells}, {0, 8, 15, cells}} {
		dense := f.Extract(0, cells)
		dense.Compact()
		want := enc.NewWriter(1 << 14)
		dense.Encode(want)

		var parts []*FrozenField
		for i := 0; i+1 < len(bounds); i++ {
			live := f.Extract(bounds[i], bounds[i+1])
			parts = append(parts, live.FreezeInto(nil))
			for s := 0; s < 5; s++ {
				fold(live, bounds[i], bounds[i+1])
			}
		}
		got := enc.NewWriter(1 << 14)
		EncodeFrozenStitched(got, parts, nil)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%d parts: stitched encode differs from dense", len(parts))
		}
	}
}

// TestCopyInto: a pooled-buffer deep copy must encode identically to the
// source and stay independent of it afterwards.
func TestCopyInto(t *testing.T) {
	const cells = 11
	rng := rand.New(rand.NewSource(3))
	src := NewField(cells, 0.1)
	dst := NewField(cells, 0.1)
	a := make([]float64, cells)
	b := make([]float64, cells)
	fold := func(f *Field, n int) {
		for s := 0; s < n; s++ {
			for i := range a {
				a[i] = rng.NormFloat64()
				b[i] = rng.NormFloat64()
			}
			f.UpdatePair(a, b)
		}
	}

	fold(src, 15)
	src.CopyInto(dst)
	wantBytes := func(f *Field) []byte {
		w := enc.NewWriter(1 << 12)
		f.Encode(w)
		return append([]byte(nil), w.Bytes()...)
	}
	if !bytes.Equal(wantBytes(src), wantBytes(dst)) {
		t.Fatal("copy encodes differently from source")
	}

	// Further folding into src must not leak into the copy, and a second
	// CopyInto must fully refresh the reused buffers.
	before := wantBytes(dst)
	fold(src, 10)
	if !bytes.Equal(before, wantBytes(dst)) {
		t.Fatal("copy aliases source state")
	}
	src.CopyInto(dst)
	if !bytes.Equal(wantBytes(src), wantBytes(dst)) {
		t.Fatal("refreshed copy encodes differently from source")
	}
}
