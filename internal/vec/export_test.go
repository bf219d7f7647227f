package vec

// Truncate keeps only the first n live rows.
func (b *Batch) Truncate(n int) {
	if n >= b.Rows() {
		return
	}
	if b.Sel == nil {
		b.Sel = make([]int32, n)
		for i := range b.Sel {
			b.Sel[i] = int32(i)
		}
		return
	}
	b.Sel = b.Sel[:n]
}
