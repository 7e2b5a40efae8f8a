package swdnn

// PlanCacheSize returns the number of memoized entries currently held.
func PlanCacheSize() int {
	n := 0
	planCache.Range(func(_, _ any) bool { n++; return true })
	return n
}
