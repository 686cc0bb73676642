package batch_test

import (
	"bytes"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/tpch"
)

// TestAppendCompressedMatchesReferenceOnTPCH runs the oracle over the data
// the benchmark moves: every TPC-H table at SF 0.01, cut into the
// benchmark's control-plane (128-row), default (8192) and data-plane
// (32768) split sizes. The frames must be the reference encoder's, byte for
// byte — the proof that size-first selection changed no wire byte.
func TestAppendCompressedMatchesReferenceOnTPCH(t *testing.T) {
	var dst []byte
	for name, table := range tpch.Generate(0.01).Tables() {
		for _, rows := range []int{128, 8192, 32768} {
			for i, split := range table.SplitRows(rows) {
				dst = batch.AppendCompressed(dst[:0], split)
				if !bytes.Equal(dst, batch.ReferenceEncodeCompressed(split)) {
					t.Fatalf("%s split %d of %d rows: frame differs from the reference encoder", name, i, rows)
				}
			}
		}
	}
}
