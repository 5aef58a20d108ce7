package par

import (
	"sync/atomic"
	"testing"
)

// TestDoVisitsEveryItemOnce checks that every index runs exactly once for
// any worker count, including more workers than items and the default.
func TestDoVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		for _, items := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, items)
			Do(workers, items, func(k int) { hits[k].Add(1) })
			for k := range hits {
				if n := hits[k].Load(); n != 1 {
					t.Fatalf("workers=%d items=%d: item %d ran %d times", workers, items, k, n)
				}
			}
		}
	}
}

// TestDoNestedDoesNotDeadlock runs Do inside Do with the token budget
// exhausted by the outer level: the inner calls must still finish on their
// calling goroutines.
func TestDoNestedDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	Do(8, 8, func(int) {
		Do(8, 100, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested Do ran %d items, want 800", got)
	}
}
