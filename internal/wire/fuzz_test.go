package wire

import (
	"testing"

	"melissa/internal/codec"
	"melissa/internal/enc"
)

// FuzzBulkViews feeds arbitrary bytes to the three bulk-frame parsers the
// server runs on untrusted network input. None may panic, and a frame a
// parser accepts must be safe to consume the way the fold workers do: every
// DecodeFieldRange over the full cell range stays in bounds, and every
// compressed range decompresses without error into a buffer no larger than
// the frame could expand to.
func FuzzBulkViews(f *testing.F) {
	batch := testBatch(3, 100, 140, 3, 4)
	w := enc.NewWriter(0)
	EncodeTo(w, &Data{GroupID: 3, Timestep: 7, CellLo: 100, CellHi: 140, Fields: batch.Steps[0].Fields})
	f.Add(append([]byte(nil), w.Bytes()...))
	w = enc.NewWriter(0)
	EncodeTo(w, batch)
	f.Add(append([]byte(nil), w.Bytes()...))
	for _, ranges := range [][]int{{40}, {7, 33}, {10, 10, 10, 10}} {
		var bc BatchCompressor
		w = enc.NewWriter(0)
		bc.EncodeTo(w, batch, ranges)
		f.Add(append([]byte(nil), w.Bytes()...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var dv DataView
		if dv.Parse(data) == nil {
			dst := make([]float64, dv.Cells())
			for fi := 0; fi < dv.NumFields(); fi++ {
				dv.DecodeFieldRange(fi, 0, dv.Cells(), dst)
			}
		}
		var bv DataBatchView
		if bv.Parse(data) == nil {
			dst := make([]float64, bv.Cells())
			for s := 0; s < bv.NumSteps(); s++ {
				for fi := 0; fi < bv.NumFields(); fi++ {
					bv.DecodeFieldRange(s, fi, 0, bv.Cells(), dst)
				}
			}
		}
		var cv DataBatchCView
		if cv.Parse(data) == nil {
			var dec codec.Decoder
			for r := 0; r < cv.NumRanges(); r++ {
				// A zero-run token expands to at most 128 bytes of each of the
				// 8 byte planes, so an accepted range can never claim more
				// words than 128 per block byte.
				n := cv.RangeWords(r)
				if n <= 0 || n > 128*len(data) {
					t.Fatalf("range %d: %d words from a %d-byte frame", r, n, len(data))
				}
				if err := cv.DecompressRange(r, &dec, make([]uint64, n)); err != nil {
					t.Fatalf("range %d: parsed frame failed to decompress: %v", r, err)
				}
			}
		}
	})
}
