package core

import (
	"reflect"
	"testing"
)

// TestActivityRingKeepsNewestOldestFirst fills a ring past its capacity and
// checks it returns exactly the newest activityLogCap entries, oldest first,
// at every fill level on the way.
func TestActivityRingKeepsNewestOldestFirst(t *testing.T) {
	var r ring[int]
	for n := 1; n <= 3*activityLogCap+7; n++ {
		r.add(n)
		if n%97 != 0 && n < 3*activityLogCap {
			continue
		}
		first := max(1, n-activityLogCap+1)
		want := make([]int, 0, activityLogCap)
		for v := first; v <= n; v++ {
			want = append(want, v)
		}
		if got := r.entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d adds: %d entries from %d to %d, want %d from %d to %d",
				n, len(got), got[0], got[len(got)-1], len(want), want[0], want[len(want)-1])
		}
	}
}
