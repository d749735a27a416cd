// Package num holds tiny numeric helpers shared across the simulator
// packages, so hot-path arithmetic is written once instead of as private
// per-package copies.
package num

import "sort"

// Max64 returns the larger of a and b.
func Max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Min64 returns the smaller of a and b.
func Min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// SortedKeys returns the map's keys in sorted order, so callers can
// iterate string-keyed maps deterministically.
//
//pimflow:deterministic
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:ignore LT-MAP-ORDER keys are sorted before the caller iterates them
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
