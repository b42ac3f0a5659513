package cluster

import (
	"fmt"
	"testing"
)

func threeNodeRing() (*Ring, []string) {
	addrs := []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"}
	return NewRing(addrs, 0), addrs
}

func TestRingDeterministicAndSticky(t *testing.T) {
	r1, _ := threeNodeRing()
	r2, _ := threeNodeRing()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("phone-%d", i)
		a1, ok1 := r1.Pick(key)
		a2, ok2 := r2.Pick(key)
		if !ok1 || !ok2 || a1 != a2 {
			t.Fatalf("Pick(%q) = %q/%q, want identical across ring instances", key, a1, a2)
		}
		if again, _ := r1.Pick(key); again != a1 {
			t.Fatalf("Pick(%q) not stable: %q then %q", key, a1, again)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, addrs := threeNodeRing()
	counts := map[string]int{}
	const keys = 9000
	for i := 0; i < keys; i++ {
		a, ok := r.Pick(fmt.Sprintf("client-%d", i))
		if !ok {
			t.Fatal("Pick failed with all backends up")
		}
		counts[a]++
	}
	for _, a := range addrs {
		frac := float64(counts[a]) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("backend %s owns %.1f%% of keys — ring badly unbalanced (%v)", a, frac*100, counts)
		}
	}
}

// TestRingSkipDownMovesOnlyOrphans pins the consistent-hashing
// property the resume path depends on: marking one backend down moves
// exactly its keys (everyone else keeps their node and can resume),
// and marking it back up brings exactly those keys home.
func TestRingSkipDownMovesOnlyOrphans(t *testing.T) {
	r, addrs := threeNodeRing()
	const keys = 2000
	before := make([]string, keys)
	for i := range before {
		before[i], _ = r.Pick(fmt.Sprintf("client-%d", i))
	}

	victim := addrs[1]
	r.SetDown(victim, true)
	moved := 0
	for i := range before {
		after, ok := r.Pick(fmt.Sprintf("client-%d", i))
		if !ok {
			t.Fatal("Pick failed with two backends up")
		}
		if after == victim {
			t.Fatalf("key client-%d still routed to the down backend", i)
		}
		if before[i] == victim {
			moved++
			continue
		}
		if after != before[i] {
			t.Fatalf("key client-%d moved from healthy %s to %s", i, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys — test world too small")
	}

	r.SetDown(victim, false)
	for i := range before {
		if after, _ := r.Pick(fmt.Sprintf("client-%d", i)); after != before[i] {
			t.Fatalf("key client-%d did not come home after revive: %s != %s", i, after, before[i])
		}
	}
}

func TestRingAllDown(t *testing.T) {
	r, addrs := threeNodeRing()
	for _, a := range addrs {
		r.SetDown(a, true)
	}
	if _, ok := r.Pick("anyone"); ok {
		t.Fatal("Pick succeeded with every backend down")
	}
	members := r.Members()
	if len(members) != 3 {
		t.Fatalf("Members() = %d rows, want 3", len(members))
	}
	for _, m := range members {
		if m.Up {
			t.Fatalf("member %s reported up", m.Addr)
		}
	}
	if NewRing(nil, 4) == nil {
		t.Fatal("empty ring must construct")
	}
	if _, ok := NewRing(nil, 4).Pick("x"); ok {
		t.Fatal("empty ring Pick must fail")
	}
}
