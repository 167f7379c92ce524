package cluster

import (
	"fmt"
	"testing"
)

func fleet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://worker-%d:8080", i)
	}
	return out
}

// TestPlacerDeterminism: placement is a pure function of (key, fleet) —
// same inputs, same replica set, in the same order, with no duplicates.
func TestPlacerDeterminism(t *testing.T) {
	p := NewPlacer(3)
	workers := fleet(7)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("graph-%d", i)
		a := p.Place(key, workers)
		b := p.Place(key, workers)
		if len(a) != 3 {
			t.Fatalf("Place(%q) returned %d replicas, want 3", key, len(a))
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("Place(%q) not deterministic: %v vs %v", key, a, b)
		}
		seen := map[string]bool{}
		for _, w := range a {
			if seen[w] {
				t.Fatalf("Place(%q) repeated worker %s: %v", key, w, a)
			}
			seen[w] = true
		}
	}
}

// TestPlacerCapsAtFleetSize: R larger than the fleet degrades to the
// whole fleet, never to duplicates or a panic.
func TestPlacerCapsAtFleetSize(t *testing.T) {
	p := NewPlacer(5)
	got := p.Place("g", fleet(2))
	if len(got) != 2 {
		t.Fatalf("R=5 over 2 workers placed %d replicas, want 2", len(got))
	}
	if p.Replicas() != 5 {
		t.Fatalf("Replicas() = %d, want the configured 5", p.Replicas())
	}
	if one := NewPlacer(0); one.Replicas() != 1 {
		t.Fatalf("NewPlacer(0).Replicas() = %d, want the floor of 1", one.Replicas())
	}
}

// TestPlacerMinimalDisruption is the property rendezvous hashing buys
// over mod-N: removing one worker remaps only the keys that worker held.
// For every key, placement over the shrunken fleet must equal the old
// full ranking with the lost worker deleted — keys that never touched it
// keep their exact replica set.
func TestPlacerMinimalDisruption(t *testing.T) {
	p := NewPlacer(2)
	workers := fleet(6)
	lost := workers[3]
	survivors := append(append([]string{}, workers[:3]...), workers[4:]...)

	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("graph-%d", i)
		oldRank := p.Rank(key, workers)
		want := make([]string, 0, 2)
		for _, w := range oldRank {
			if w != lost {
				want = append(want, w)
			}
			if len(want) == 2 {
				break
			}
		}
		got := p.Place(key, survivors)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key %q: Place after losing %s = %v, want old rank minus it = %v",
				key, lost, got, want)
		}
		if fmt.Sprint(got) != fmt.Sprint(oldRank[:2]) {
			moved++
		}
	}
	// ~2/6 of keys had the lost worker in their top 2; all 200 moving
	// would mean mod-N-style total reshuffle.
	if moved == 0 || moved > 140 {
		t.Errorf("%d/200 keys changed placement after losing one of 6 workers; want a minority, not %d", moved, moved)
	}
}

// TestPlacerSpread: every worker in a modest fleet is primary for some
// key — the hash does not strand capacity.
func TestPlacerSpread(t *testing.T) {
	p := NewPlacer(1)
	workers := fleet(5)
	primaries := map[string]int{}
	for i := 0; i < 500; i++ {
		primaries[p.Place(fmt.Sprintf("graph-%d", i), workers)[0]]++
	}
	for _, w := range workers {
		if primaries[w] == 0 {
			t.Errorf("worker %s is primary for none of 500 keys: %v", w, primaries)
		}
	}
}

// TestPlacerRanksPinned: rendezvous ranks are a stable function of the
// digest, so a change of hash would silently move every graph to other
// workers after an upgrade. These orders are pinned literals.
func TestPlacerRanksPinned(t *testing.T) {
	const w0, w1, w2 = "http://worker-0:8080", "http://worker-1:8080", "http://worker-2:8080"
	want := map[string][]string{
		"demo":             {w0, w2, w1},
		"rmat":             {w1, w2, w0},
		"graph-0":          {w2, w1, w0},
		"graph-1":          {w1, w2, w0},
		"graph-2":          {w0, w1, w2},
		"3f2a9c1e7b4d8a6c": {w1, w0, w2},
	}
	p := NewPlacer(3)
	for key, order := range want {
		if got := p.Rank(key, fleet(3)); fmt.Sprint(got) != fmt.Sprint(order) {
			t.Errorf("Rank(%q) = %v, want %v", key, got, order)
		}
	}
}
