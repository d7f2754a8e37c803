package perfbench

import "testing"

// TestServiceSequentialCache pins the service workload: 16 sequential
// requests over 4 distinct scenarios must miss exactly 4 times (a 0.75 hit
// ratio) and surface the solver effort behind the misses.
func TestServiceSequentialCache(t *testing.T) {
	c, ok := catalog(t)["service_sequential_cache"]
	if !ok {
		t.Fatal("service_sequential_cache missing from the catalog")
	}
	if got := c["cache_hit_ratio"]; got != 0.75 {
		t.Fatalf("cache_hit_ratio = %v, want exactly 0.75", got)
	}
	if got := c["cache_misses"]; got != 4 {
		t.Fatalf("cache_misses = %v, want 4", got)
	}
	if c["solver_nodes_per_op"] <= 0 || c["solver_pivots_per_op"] <= 0 {
		t.Fatalf("no solver effort surfaced: %v", c)
	}
}
