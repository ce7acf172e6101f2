package stats

// From-state constructors: wrap raw tracker state in the field types without
// folding samples. Callers that keep tracker state in their own layout (the
// interleaved per-cell records of internal/core) use these to materialize
// the standard accessor views. The slices are adopted, not
// copied.

// MinMaxFromState returns a FieldMinMax over the given per-cell min/max
// arrays and sample count. len(min) must equal len(max).
func MinMaxFromState(n int64, min, max []float64) *FieldMinMax {
	if len(min) != len(max) {
		panic("stats: MinMaxFromState with mismatched cell counts")
	}
	return &FieldMinMax{n: n, min: min, max: max}
}

// ExceedanceFromState returns a FieldExceedance over the given per-cell
// exceedance counts and sample count.
func ExceedanceFromState(threshold float64, n int64, counts []int64) *FieldExceedance {
	return &FieldExceedance{Threshold: threshold, n: n, counts: counts}
}

// MomentsFromState returns a FieldMoments over the given per-cell central
// moment arrays and sample count. All four slices must have equal length.
func MomentsFromState(n int64, means, m2, m3, m4 []float64) *FieldMoments {
	if len(m2) != len(means) || len(m3) != len(means) || len(m4) != len(means) {
		panic("stats: MomentsFromState with mismatched cell counts")
	}
	return &FieldMoments{n: n, means: means, m2: m2, m3: m3, m4: m4}
}
