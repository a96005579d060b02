package storage

// NullBlocks exposes a view's per-block NULL summary to the external
// tests, which compare derived views with transpositions.
func (v *ColumnarView) NullBlocks() [][]bool { return v.nullBlocks }
