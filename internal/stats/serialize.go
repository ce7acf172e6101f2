package stats

import "melissa/internal/enc"

// The Encode/Decode methods below write scalar accumulator state through the
// shared enc codec; sobol.Martinez serializes its per-parameter covariances
// with them. Round-tripping is bit-exact. The per-cell Field* trackers have
// no codec of their own: internal/core owns the checkpoint layout of their
// state (core.LayoutV1/LayoutV2) and wraps it for reads through *FromState.

// Encode appends the accumulator state to w.
func (m *Moments) Encode(w *enc.Writer) {
	w.I64(m.n)
	w.F64(m.mean)
	w.F64(m.m2)
	w.F64(m.m3)
	w.F64(m.m4)
}

// Decode restores the accumulator state from r.
func (m *Moments) Decode(r *enc.Reader) {
	m.n = r.I64()
	m.mean = r.F64()
	m.m2 = r.F64()
	m.m3 = r.F64()
	m.m4 = r.F64()
}

// Encode appends the accumulator state to w.
func (c *Covariance) Encode(w *enc.Writer) {
	w.I64(c.n)
	w.F64(c.meanX)
	w.F64(c.meanY)
	w.F64(c.c2)
	w.F64(c.m2x)
	w.F64(c.m2y)
}

// Decode restores the accumulator state from r.
func (c *Covariance) Decode(r *enc.Reader) {
	c.n = r.I64()
	c.meanX = r.F64()
	c.meanY = r.F64()
	c.c2 = r.F64()
	c.m2x = r.F64()
	c.m2y = r.F64()
}
