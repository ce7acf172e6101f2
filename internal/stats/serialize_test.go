package stats

import (
	"math/rand"
	"testing"

	"melissa/internal/enc"
)

// roundTripEqual encodes both scalar accumulators, decodes them into fresh
// values and reports whether every statistic is bit-identical.
func roundTripEqual(m Moments, c Covariance) bool {
	w := enc.NewWriter(256)
	m.Encode(w)
	c.Encode(w)

	r := enc.NewReader(w.Bytes())
	var m2 Moments
	var c2 Covariance
	m2.Decode(r)
	c2.Decode(r)
	if r.Err() != nil || r.Remaining() != 0 {
		return false
	}
	return m2 == m && c2 == c
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var m Moments
	var c Covariance
	for s := 0; s < 57; s++ {
		x := rng.NormFloat64()
		m.Update(x)
		c.Update(x, rng.Float64())
	}
	if !roundTripEqual(m, c) {
		t.Fatal("serialization round-trip is not bit-exact")
	}
}

func TestSerializeEmptyAccumulators(t *testing.T) {
	if !roundTripEqual(Moments{}, Covariance{}) {
		t.Fatal("round-trip of empty accumulators failed")
	}
}

func TestSerializeTruncatedBufferErrors(t *testing.T) {
	var m Moments
	m.Update(1)
	w := enc.NewWriter(64)
	m.Encode(w)

	r := enc.NewReader(w.Bytes()[:w.Len()-5])
	var m2 Moments
	m2.Decode(r)
	if r.Err() == nil {
		t.Fatal("decoding a truncated buffer must report an error")
	}
}
