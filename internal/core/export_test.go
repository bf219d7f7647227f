package core

// setMergeFailPoint installs (or, with nil, clears) a fail point
// consulted by every merge regardless of entry point — the test hook
// behind the degradation-ladder and circuit-breaker tests.
func (t *Table) setMergeFailPoint(fn func(string) error) {
	if fn == nil {
		t.mergeFail.Store(nil)
		return
	}
	t.mergeFail.Store(&fn)
}
