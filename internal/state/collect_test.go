package state

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestCollectShardsMatchesSerial gates the parallel forced-expiry collector:
// an unlimited parallel collection must return exactly the serial result
// (same keys, partition order), and a limited one must return a valid
// subset of at most limit due keys.
func TestCollectShardsMatchesSerial(t *testing.T) {
	const nparts = 64
	data := make([][]string, nparts)
	all := map[string]bool{}
	var want []string
	for i := range data {
		for k := 0; k < (i%5)+1; k++ {
			key := fmt.Sprintf("p%02d-k%d", i, k)
			data[i] = append(data[i], key)
			all[key] = true
			want = append(want, key)
		}
	}
	// Like the real per-partition scan, the callback claims budget for
	// every key it collects (collectExpired parks the rest).
	collect := func(i int, take func() bool, buf []string) []string {
		for _, k := range data[i] {
			if !take() {
				break
			}
			buf = append(buf, k)
		}
		return buf
	}

	got := collectShards(nparts, -1, nil, collect)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unlimited collection diverged:\n got  %v\n want %v", got, want)
	}

	for _, limit := range []int{0, 1, 7, len(want) - 1, len(want), len(want) + 10} {
		got := collectShards(nparts, limit, nil, collect)
		if len(got) > limit {
			t.Fatalf("limit %d: collected %d keys", limit, len(got))
		}
		if limit >= len(want) && len(got) != len(want) {
			t.Fatalf("limit %d: collected %d of %d due keys", limit, len(got), len(want))
		}
		seen := map[string]bool{}
		for _, k := range got {
			if !all[k] {
				t.Fatalf("limit %d: invented key %q", limit, k)
			}
			if seen[k] {
				t.Fatalf("limit %d: duplicate key %q", limit, k)
			}
			seen[k] = true
		}
	}
}

// TestCollectShardsAppendsToBuf pins the append contract: existing buf
// contents survive and count against the limit.
func TestCollectShardsAppendsToBuf(t *testing.T) {
	collect := func(i int, _ func() bool, buf []string) []string { return append(buf, fmt.Sprintf("k%d", i)) }
	got := collectShards(4, -1, []string{"pre"}, collect)
	if got[0] != "pre" || len(got) != 5 {
		t.Fatalf("got %v", got)
	}
}

// TestCollectExpiredParallelLimitDrains is TestCollectExpiredLimit over the
// parallel collector: with several workers sharing one limit, every round
// must collect a full budget of due keys at one clock reading. A collector
// that drops keys past the limit after a worker armed them for the next
// tick starves the partitions at the start of a worker's range.
func TestCollectExpiredParallelLimitDrains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, s := range []Backend{New(64), NewOCC(64)} {
		var now int64 = 1e9
		s.ConfigureExpiry(Expiry{
			TTL:      time.Millisecond,
			Prefixes: []string{"f:"},
			Clock:    func() int64 { return now },
			Tick:     time.Millisecond,
		})
		const n, limit = 1000, 50
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("f:%04d", i)
			s.Apply([]Update{{Key: k, Value: []byte("v"), Partition: s.PartitionOf(k)}})
		}
		now += 10e6 // everything due
		for rounds := 0; s.Len() > 0; rounds++ {
			keys := s.CollectExpired(now, limit, nil)
			if want := min(limit, s.Len()); len(keys) != want {
				t.Fatalf("%T round %d: collected %d keys with %d due, want %d",
					s, rounds, len(keys), s.Len(), want)
			}
			ups := make([]Update, 0, len(keys))
			for _, k := range keys {
				ups = append(ups, Update{Key: k, Partition: s.PartitionOf(k)})
			}
			s.Apply(ups)
		}
	}
}
