package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSafeGraph builds a random graph with no positive cycles (forward
// edges non-negative, back edges more negative than any forward gain) and
// returns it with its edge list.
func randomSafeGraph(rng *rand.Rand, n, m int) (*Graph, [][3]int) {
	g := New(n)
	var edges [][3]int
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		var w int
		if u < v {
			w = rng.Intn(6)
		} else {
			w = -(5*n + 1 + rng.Intn(6))
		}
		g.AddEdge(u, v, w)
		edges = append(edges, [3]int{u, v, w})
	}
	return g, edges
}

// TestScratchReuseMatchesFresh: one Scratch reused across many queries (on
// many graphs, growing and shrinking the covered range) answers every query
// exactly as a fresh computation does.
func TestScratchReuseMatchesFresh(t *testing.T) {
	s := new(Scratch)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		g, _ := randomSafeGraph(rng, n, 3*n)
		src := rng.Intn(n)
		want, err1 := g.Longest(src)
		got, err2 := g.LongestWith(s, src)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
		wi, err1 := g.LongestInto(src)
		gi, err2 := g.LongestIntoWith(s, src)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d (into): %v / %v", trial, err1, err2)
		}
		for v := range wi {
			if gi[v] != wi[v] {
				t.Fatalf("trial %d: into-dist[%d] = %d, want %d", trial, v, gi[v], wi[v])
			}
		}
		for dst := 0; dst < n; dst++ {
			w1, p1, ok1, e1 := g.LongestPath(src, dst)
			w2, p2, ok2, e2 := g.LongestPathWith(s, src, dst)
			if (e1 == nil) != (e2 == nil) || ok1 != ok2 || w1 != w2 {
				t.Fatalf("trial %d: LongestPath(%d,%d) disagrees", trial, src, dst)
			}
			if ok1 {
				if len(p1) != len(p2) {
					t.Fatalf("trial %d: path lengths differ: %v vs %v", trial, p1, p2)
				}
				for i := range p1 {
					if p1[i] != p2[i] {
						t.Fatalf("trial %d: paths differ: %v vs %v", trial, p1, p2)
					}
				}
			}
		}
	}
}

// TestScratchDetectsPositiveCycle: cycle detection survives buffer reuse
// (stale relaxation counters must not mask or fake a cycle).
func TestScratchDetectsPositiveCycle(t *testing.T) {
	s := new(Scratch)
	good := New(3)
	good.AddEdge(0, 1, 5)
	good.AddEdge(1, 2, 5)
	if _, err := good.LongestWith(s, 0); err != nil {
		t.Fatal(err)
	}
	bad := New(3)
	bad.AddEdge(0, 1, 1)
	bad.AddEdge(1, 0, 1)
	if _, err := bad.LongestWith(s, 0); err != ErrPositiveCycle {
		t.Fatalf("got %v, want ErrPositiveCycle", err)
	}
	// And the scratch is still usable afterwards.
	d, err := good.LongestWith(s, 0)
	if err != nil || d[2] != 10 {
		t.Fatalf("post-cycle reuse: dist=%v err=%v", d, err)
	}
}

// TestRelaxFromMatchesFresh is the incremental contract: growing a graph by
// random monotone batches (new vertices and edges) and re-relaxing from
// only the new edges' sources gives exactly the distances of a fresh
// computation after every batch.
func TestRelaxFromMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g, _ := randomSafeGraph(rng, n, 2*n)
		src := rng.Intn(n)
		s := new(Scratch)
		if _, err := g.LongestWith(s, src); err != nil {
			return false
		}
		for batch := 0; batch < 4; batch++ {
			var seeds []int
			// Sometimes grow the vertex set.
			for grow := rng.Intn(3); grow > 0; grow-- {
				g.AddVertex()
			}
			nn := g.N()
			for i := 0; i < 1+rng.Intn(4); i++ {
				u := rng.Intn(nn)
				v := rng.Intn(nn)
				if u == v {
					continue
				}
				// More negative than the total positive weight the base
				// graph can carry, so every cycle through a new edge stays
				// negative regardless of the existing structure.
				w := -(200 + rng.Intn(8))
				g.AddEdge(u, v, w)
				seeds = append(seeds, u)
			}
			got, err := g.RelaxFrom(s, seeds)
			if err != nil {
				return false
			}
			want, err := g.Longest(src)
			if err != nil {
				return false
			}
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRelaxFromRequiresPriorRun(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if _, err := g.RelaxFrom(new(Scratch), []int{0}); err == nil {
		t.Error("RelaxFrom accepted an empty scratch")
	}
}

// TestRemoveEdge: removal deletes exactly one occurrence from both
// adjacency directions and longest paths reroute accordingly.
func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 1, 3) // parallel, lighter
	g.AddEdge(1, 2, 1)
	if !g.RemoveEdge(0, 1, 10) {
		t.Fatal("edge (0,1,10) not found")
	}
	if g.RemoveEdge(0, 1, 10) {
		t.Fatal("edge (0,1,10) removed twice")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	d, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[2] != 4 {
		t.Errorf("dist to 2 after removal = %d, want 4 via the parallel edge", d[2])
	}
	// Reverse adjacency shrank in step.
	if len(g.In(1)) != 1 {
		t.Errorf("in-degree of 1 = %d, want 1", len(g.In(1)))
	}
	if g.RemoveEdge(0, 2, 1) {
		t.Error("nonexistent edge reported removed")
	}
}

// TestPopVertexRollback: the AddVertex/AddEdge/RemoveEdge/PopVertex cycle
// used for speculative query vertices restores the graph exactly.
func TestPopVertexRollback(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	before, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	eta := g.AddVertex()
	g.AddEdge(1, eta, 5)
	g.AddEdge(eta, 1, -5)
	g.RemoveEdge(eta, 1, -5)
	g.RemoveEdge(1, eta, 5)
	g.PopVertex()
	if g.N() != 3 || g.NumEdges() != 2 {
		t.Fatalf("rollback left N=%d edges=%d", g.N(), g.NumEdges())
	}
	after, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range before {
		if before[v] != after[v] {
			t.Errorf("dist[%d] changed across rollback: %d vs %d", v, before[v], after[v])
		}
	}
}

func TestPopVertexPanicsOnNonIsolated(t *testing.T) {
	g := New(1)
	eta := g.AddVertex()
	g.AddEdge(0, eta, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic popping a wired vertex")
		}
	}()
	g.PopVertex()
}

// TestRingQueueChurn forces heavy re-queueing (long negative chains with a
// shortcut relaxed late) so the ring wraps many times; the dequeue head
// must never overtake pending entries.
func TestRingQueueChurn(t *testing.T) {
	const n = 200
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	// Shortcuts from 0 deep into the chain with increasing weights: each
	// relaxation re-floods the suffix.
	for i := 2; i < n; i += 3 {
		g.AddEdge(0, i, i)
	}
	dist, err := g.Longest(0)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteLongest(n, collectEdges(g), 0)
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func collectEdges(g *Graph) [][3]int {
	var out [][3]int
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			out = append(out, [3]int{u, e.To, e.Weight})
		}
	}
	return out
}

// TestWarmRestartAfterAbortedRun: warm restarts clear no scratch state, so
// every SPFA variant must leave inQueue all false when it returns, also
// when it aborts on a positive cycle with vertices still in its queue.
// Each variant first aborts on a 12-vertex clique, then computes cold on a
// 4-vertex graph (which resets only the first 4 entries), regrows it to 10
// vertices and restarts warm. A queue flag left set past the shrink would
// keep a regrown vertex out of the queue; the warm distances must equal a
// fresh computation's.
func TestWarmRestartAfterAbortedRun(t *testing.T) {
	all := &Restriction{Band: make([]int32, 12), Idx: make([]int32, 12), Limit: []int32{0}}
	for v := range all.Idx {
		all.Idx[v] = AlwaysVisible
	}
	refreshVisible(all)
	type variant struct {
		name string
		cold func(g *Graph, s *Scratch) ([]int64, error)
		// warm restarts s on g after the growth; fwd and rev list the
		// sources and the heads of the edges added.
		warm func(g *Graph, s *Scratch, fwd, rev []int) ([]int64, error)
	}
	variants := []variant{
		{"forward",
			func(g *Graph, s *Scratch) ([]int64, error) { return g.LongestWith(s, 0) },
			func(g *Graph, s *Scratch, fwd, _ []int) ([]int64, error) { return g.RelaxFrom(s, fwd) }},
		{"reverse",
			func(g *Graph, s *Scratch) ([]int64, error) { return g.LongestIntoWith(s, 3) },
			func(g *Graph, s *Scratch, _, rev []int) ([]int64, error) { return g.RelaxReverseFrom(s, rev, nil) }},
		{"forward-restricted",
			func(g *Graph, s *Scratch) ([]int64, error) { return g.LongestRestricted(s, 0, all) },
			func(g *Graph, s *Scratch, fwd, _ []int) ([]int64, error) {
				return g.RelaxRestrictedFrom(s, fwd, nil, all)
			}},
		{"reverse-restricted",
			func(g *Graph, s *Scratch) ([]int64, error) { return g.LongestIntoRestricted(s, 3, all) },
			func(g *Graph, s *Scratch, _, rev []int) ([]int64, error) {
				return g.RelaxReverseRestrictedFrom(s, rev, nil, nil, all)
			}},
	}
	for _, vt := range variants {
		var s Scratch
		clique := New(12)
		for u := 0; u < 12; u++ {
			for v := 0; v < 12; v++ {
				if u != v {
					clique.AddEdge(u, v, 1)
				}
			}
		}
		if _, err := vt.cold(clique, &s); !errors.Is(err, ErrPositiveCycle) {
			t.Fatalf("%s: clique: got %v, want ErrPositiveCycle", vt.name, err)
		}
		// Shrink: the chain 0 -> 1 -> 2 -> 3.
		g := New(4)
		for v := 0; v < 3; v++ {
			g.AddEdge(v, v+1, 1)
		}
		if _, err := vt.cold(g, &s); err != nil {
			t.Fatalf("%s: cold: %v", vt.name, err)
		}
		// Regrow: a detour 0 -> 4 -> ... -> 9 -> 3 of weight 8.
		var fwd, rev []int
		add := func(u, v, w int) {
			g.AddEdge(u, v, w)
			fwd, rev = append(fwd, u), append(rev, v)
		}
		for v := 4; v < 10; v++ {
			g.AddVertex()
		}
		add(0, 4, 2)
		for v := 4; v < 9; v++ {
			add(v, v+1, 1)
		}
		add(9, 3, 1)
		got, err := vt.warm(g, &s, fwd, rev)
		if err != nil {
			t.Fatalf("%s: warm: %v", vt.name, err)
		}
		var fresh Scratch
		want, err := vt.cold(g, &fresh)
		if err != nil {
			t.Fatalf("%s: fresh: %v", vt.name, err)
		}
		for v := 0; v < g.N(); v++ {
			if got[v] != want[v] {
				t.Fatalf("%s: warm restart diverges at %d: %d vs %d", vt.name, v, got[v], want[v])
			}
		}
	}
}
