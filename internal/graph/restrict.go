package graph

import (
	"errors"
	"fmt"
	"math"
)

// AlwaysVisible is the Restriction.Idx value of vertices that never carry a
// virtual boundary edge (auxiliary bands, speculative query vertices): it
// is below any representable limit.
const AlwaysVisible = int32(math.MinInt32)

// posInf is the "masked vertex" distance sentinel of restricted
// relaxation: no real path weight can exceed it, so an edge into a masked
// vertex never passes the improvement test. It is as far from the
// representable range as NegInf, so adding edge weights cannot wrap.
const posInf = int64(1) << 60

// Restriction masks a graph down to a prefix-closed subgraph and overlays
// caller-private edges, so that one standing graph can serve many
// subscribers whose vertex sets are per-band prefixes of it (bounds.Shared
// amortizes the extended bounds graph across every live agent of a run this
// way: vertex ids are arrival-ordered, so an agent's view is exactly a
// prefix mask per process band).
//
// Visible is the authoritative mask, one bool per vertex: relaxation never
// leaves the visible set — invisible seeds are dropped and edges into
// invisible targets are rejected. The rejection costs NOTHING per edge:
// invisible vertices carry the posInf distance sentinel, so the ordinary
// "does this edge improve the target" test fails for them and the masked
// relaxation loop is byte-for-byte the unrestricted spfa body (the mask is
// consulted only when initializing distances, filtering seeds and placing
// the per-dequeue virtual edges). Since subscriber frontiers only ever
// grow, the distances a Scratch accumulates for one subscriber remain
// valid warm starts under that subscriber's later (larger) visible sets —
// the subscriber passes the vertices that just became visible as
// `admitted` so their sentinels are dropped.
//
// Two virtual edge families complete the masked subgraph without touching
// the standing edge tables:
//
//   - Overlay[u] lists caller-private out-edges of u, for u < len(Overlay).
//     (bounds.Shared keeps each agent's E” horizon edges here: they depend
//     on which deliveries the agent has seen, so they cannot be standing.)
//   - Every vertex v with Idx[v] == Limit[Band[v]] — the band's boundary
//     under this restriction — gets the edge
//     v --BoundaryWeight--> BoundaryTo[Band[v]] when BoundaryTo is non-nil
//     and the target is >= 0. (The E' boundary edge of an extended bounds
//     graph is a function of the frontier alone, so it lives here rather
//     than being rewritten per agent.) This check runs once per dequeued
//     vertex, so the indirect (band, idx, limit) form is fine here.
type Restriction struct {
	Visible []bool

	Band  []int32
	Idx   []int32
	Limit []int32

	Overlay [][]Edge

	// ROverlay is Overlay transposed, for the reverse (into-destination)
	// queries: ROverlay[v] lists {To: u, Weight: w} for every overlay edge
	// u --w--> v, keyed by the edge HEAD. Callers using the reverse queries
	// must keep it in mirror-sync with Overlay (append together, swap-delete
	// together); forward-only callers leave it nil.
	ROverlay [][]Edge

	BoundaryTo     []int32
	BoundaryWeight int

	// BoundaryFrom is the reverse counterpart of the virtual boundary
	// edges: BoundaryFrom[b] names the vertex currently at band b's
	// boundary under this restriction (the unique visible v with
	// Idx[v] == Limit[b]), or -1 when the band has none. Reverse relaxation
	// consults it when dequeuing a band anchor, which requires the anchors
	// to be self-indexed (BoundaryTo[b] == b — the bounds engines guarantee
	// this: aux band vertex ids equal band ids). Forward-only callers leave
	// it nil.
	BoundaryFrom []int32
}

// LongestRestricted is LongestWith confined to the restriction's visible
// subgraph (plus its overlay and virtual boundary edges). Entries for
// invisible vertices hold the masking sentinel and must not be read as
// distances. The returned slice aliases s and stays valid only until s is
// used again.
func (g *Graph) LongestRestricted(s *Scratch, src int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("graph: source %d outside 0..%d", src, n-1)
	}
	if len(r.Visible) < n || len(r.Band) < n || len(r.Idx) < n {
		return nil, fmt.Errorf("graph: restriction covers %d of %d vertices", len(r.Visible), n)
	}
	if !r.Visible[src] {
		return nil, fmt.Errorf("graph: source %d outside the restriction", src)
	}
	s.ensure(n)
	dist := s.dist
	vis := r.Visible
	for i := range dist {
		if vis[i] {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
		s.inQueue[i] = false
		s.pathLen[i] = 0
	}
	dist[src] = 0
	s.queue[0] = src
	s.inQueue[src] = true
	s.n = n
	return dist, spfaRestricted(g.adj, s, 1, r)
}

// RelaxRestrictedFrom is RelaxFrom confined to a restriction: it resumes a
// prior LongestRestricted/RelaxRestrictedFrom run from the same source and
// the same subscriber, after the graph and the subscriber's visible set
// grew monotonically. seeds must list the sources of every edge that became
// visible to this subscriber since the prior run (newly standing edges
// inside the frontier, overlay additions, and the moved virtual boundary
// edges); invisible or unreachable seeds are skipped. admitted must list
// every vertex of the prior run's range that has become visible since, so
// its masked-distance sentinel is dropped (vertices beyond the prior range
// are initialized straight off the mask).
func (g *Graph) RelaxRestrictedFrom(s *Scratch, seeds, admitted []int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if s.n == 0 {
		return nil, errors.New("graph: RelaxRestrictedFrom without a prior computation")
	}
	if s.n > n {
		return nil, fmt.Errorf("graph: RelaxRestrictedFrom after shrink: %d vertices, scratch covers %d", n, s.n)
	}
	if len(r.Visible) < n || len(r.Band) < n || len(r.Idx) < n {
		return nil, fmt.Errorf("graph: restriction covers %d of %d vertices", len(r.Visible), n)
	}
	old := s.n
	s.ensure(n)
	dist := s.dist
	for i := old; i < n; i++ {
		if r.Visible[i] {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
	}
	for _, v := range admitted {
		if v < 0 || v >= n || !r.Visible[v] {
			return nil, fmt.Errorf("graph: admitted vertex %d invalid", v)
		}
		if v < old {
			dist[v] = NegInf
		}
	}
	if err := checkSeeds(seeds, n); err != nil {
		return nil, err
	}
	count := 0
	for _, v := range seeds {
		if dist[v] != NegInf && r.Visible[v] {
			count = s.push(v, count)
		}
	}
	s.n = n
	return dist, spfaRestricted(g.adj, s, count, r)
}

// LongestIntoRestricted is LongestIntoWith confined to the restriction's
// visible subgraph: it computes, for every visible vertex v, the weight of
// the longest path from v INTO dst through visible vertices only, including
// the overlay and virtual boundary edges (consulted through ROverlay and
// BoundaryFrom, which reverse callers must populate). Entries for invisible
// vertices hold the masking sentinel and must not be read as distances. The
// returned slice aliases s and stays valid only until s is used again.
func (g *Graph) LongestIntoRestricted(s *Scratch, dst int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if dst < 0 || dst >= n {
		return nil, fmt.Errorf("graph: destination %d outside 0..%d", dst, n-1)
	}
	if len(r.Visible) < n || len(r.Band) < n || len(r.Idx) < n {
		return nil, fmt.Errorf("graph: restriction covers %d of %d vertices", len(r.Visible), n)
	}
	if !r.Visible[dst] {
		return nil, fmt.Errorf("graph: destination %d outside the restriction", dst)
	}
	s.ensure(n)
	dist := s.dist
	vis := r.Visible
	for i := range dist {
		if vis[i] {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
		s.inQueue[i] = false
		s.pathLen[i] = 0
	}
	dist[dst] = 0
	s.queue[0] = dst
	s.inQueue[dst] = true
	s.n = n
	return dist, spfaReverseRestricted(g.radj, s, 1, r)
}

// RelaxReverseRestrictedFrom resumes a prior LongestIntoRestricted /
// RelaxReverseRestrictedFrom run toward the same destination and for the
// same subscriber, after the graph and the subscriber's visible set grew
// monotonically. Reverse relaxation propagates head -> tail, so seeds must
// list the HEADS of every edge that became visible since the prior run
// (newly standing edges, overlay additions, and the band anchors whose
// virtual boundary edge moved); invisible or unreachable seeds are skipped.
// admitted lists every vertex of the prior run's range that became visible
// since, so its masked-distance sentinel is dropped.
//
// Edge removal can LOWER a reverse distance, which a max-only warm restart
// would never discover: refresh must list every vertex whose distance
// toward the destination may have decreased since the prior run. Refresh
// vertices have their distances reset to unreachable and are re-derived
// from the heads of their surviving out-edges (standing, overlay and
// boundary); a refresh vertex whose derivation routes through other refresh
// vertices re-enters the queue as they improve, so a closed family (the
// bounds engines refresh the whole auxiliary band — node-vertex reverse
// distances are knowledge weights, which persist) re-derives to its exact
// fixpoint. refresh must not contain the destination, and refresh vertices
// must be visible.
func (g *Graph) RelaxReverseRestrictedFrom(s *Scratch, seeds, admitted, refresh []int, r *Restriction) ([]int64, error) {
	n := len(g.adj)
	if s.n == 0 {
		return nil, errors.New("graph: RelaxReverseRestrictedFrom without a prior computation")
	}
	if s.n > n {
		return nil, fmt.Errorf("graph: RelaxReverseRestrictedFrom after shrink: %d vertices, scratch covers %d", n, s.n)
	}
	if len(r.Visible) < n || len(r.Band) < n || len(r.Idx) < n {
		return nil, fmt.Errorf("graph: restriction covers %d of %d vertices", len(r.Visible), n)
	}
	old := s.n
	s.ensure(n)
	dist := s.dist
	for i := old; i < n; i++ {
		if r.Visible[i] {
			dist[i] = NegInf
		} else {
			dist[i] = posInf
		}
	}
	for _, v := range admitted {
		if v < 0 || v >= n || !r.Visible[v] {
			return nil, fmt.Errorf("graph: admitted vertex %d invalid", v)
		}
		if v < old {
			dist[v] = NegInf
		}
	}
	for _, v := range refresh {
		if v < 0 || v >= n || !r.Visible[v] {
			return nil, fmt.Errorf("graph: refresh vertex %d invalid", v)
		}
		dist[v] = NegInf
	}
	if err := checkSeeds(seeds, n); err != nil {
		return nil, err
	}
	count := 0
	for _, v := range seeds {
		if dist[v] != NegInf && r.Visible[v] {
			count = s.push(v, count)
		}
	}
	// Re-deriving a refresh vertex means re-popping the heads of its
	// surviving out-edges: each head, when dequeued, re-relaxes its in-edges
	// — among them the refresh vertex's. Heads that are themselves
	// refresh-reset are skipped here (unreachable seeds are useless) and
	// re-enter the queue once a neighbor with a valid distance improves
	// them, so a whole band re-derives to its fixpoint through the queue.
	for _, v := range refresh {
		for _, e := range g.adj[v] {
			if h := e.To; dist[h] != NegInf && r.Visible[h] {
				count = s.push(h, count)
			}
		}
		if v < len(r.Overlay) {
			for _, e := range r.Overlay[v] {
				if h := e.To; dist[h] != NegInf && r.Visible[h] {
					count = s.push(h, count)
				}
			}
		}
		if r.BoundaryTo != nil && r.Idx[v] == r.Limit[r.Band[v]] {
			if h := int(r.BoundaryTo[r.Band[v]]); h >= 0 && dist[h] != NegInf {
				count = s.push(h, count)
			}
		}
	}
	s.n = n
	return dist, spfaReverseRestricted(g.radj, s, count, r)
}

// spfaRestricted is spfa over the visible subgraph: the overlay
// contributes extra out-edges and band-boundary vertices relax their
// virtual boundary edge, both once per dequeued vertex. Standing edges
// need no mask work at all — masked targets hold the posInf sentinel, so
// the improvement test rejects them — and the queue only ever holds
// visible vertices (seeds are filtered, masked vertices are never
// improved). The relaxation body is spelled out three times rather than
// closed over — this loop is the hot path of every shared-engine query,
// and a closure call per edge costs ~15% of the whole query.
func spfaRestricted(adj [][]Edge, s *Scratch, count int, r *Restriction) error {
	n := len(adj)
	dist, inQueue, pathLen, queue := s.dist, s.inQueue, s.pathLen, s.queue
	band, idx, limit := r.Band, r.Idx, r.Limit
	head := 0
	var relaxed int64
	for count > 0 {
		u := queue[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inQueue[u] = false
		du := dist[u]
		for _, e := range adj[u] {
			if nd := du + int64(e.Weight); nd > dist[e.To] {
				dist[e.To] = nd
				relaxed++
				pathLen[e.To] = pathLen[u] + 1
				if int(pathLen[e.To]) >= n {
					s.Relaxations += relaxed
					s.abort(head, count, n)
					return ErrPositiveCycle
				}
				if !inQueue[e.To] {
					tail := head + count
					if tail >= n {
						tail -= n
					}
					queue[tail] = e.To
					count++
					inQueue[e.To] = true
				}
			}
		}
		if u < len(r.Overlay) {
			for _, e := range r.Overlay[u] {
				if nd := du + int64(e.Weight); nd > dist[e.To] {
					dist[e.To] = nd
					relaxed++
					pathLen[e.To] = pathLen[u] + 1
					if int(pathLen[e.To]) >= n {
						s.Relaxations += relaxed
						s.abort(head, count, n)
						return ErrPositiveCycle
					}
					if !inQueue[e.To] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = e.To
						count++
						inQueue[e.To] = true
					}
				}
			}
		}
		if r.BoundaryTo != nil && idx[u] == limit[band[u]] {
			// Boundary targets are the restriction's own always-visible band
			// anchors.
			if to := int(r.BoundaryTo[band[u]]); to >= 0 {
				if nd := du + int64(r.BoundaryWeight); nd > dist[to] {
					dist[to] = nd
					relaxed++
					pathLen[to] = pathLen[u] + 1
					if int(pathLen[to]) >= n {
						s.Relaxations += relaxed
						s.abort(head, count, n)
						return ErrPositiveCycle
					}
					if !inQueue[to] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = to
						count++
						inQueue[to] = true
					}
				}
			}
		}
	}
	s.Relaxations += relaxed
	return nil
}

// spfaReverseRestricted is spfaRestricted over the transposed graph:
// dequeuing a vertex relaxes its IN-edges (improving the distances of edge
// tails toward the fixed destination), the reverse overlay contributes the
// caller-private in-edges, and dequeuing a band anchor relaxes the band's
// virtual boundary edge backwards onto the vertex BoundaryFrom names. The
// masking works unchanged: invisible tails hold the posInf sentinel, so the
// improvement test rejects them for free. The relaxation body is spelled
// out three times for the same reason as in spfaRestricted.
func spfaReverseRestricted(radj [][]Edge, s *Scratch, count int, r *Restriction) error {
	n := len(radj)
	dist, inQueue, pathLen, queue := s.dist, s.inQueue, s.pathLen, s.queue
	head := 0
	var relaxed int64
	for count > 0 {
		u := queue[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inQueue[u] = false
		du := dist[u]
		for _, e := range radj[u] {
			if nd := du + int64(e.Weight); nd > dist[e.To] {
				dist[e.To] = nd
				relaxed++
				pathLen[e.To] = pathLen[u] + 1
				if int(pathLen[e.To]) >= n {
					s.Relaxations += relaxed
					s.abort(head, count, n)
					return ErrPositiveCycle
				}
				if !inQueue[e.To] {
					tail := head + count
					if tail >= n {
						tail -= n
					}
					queue[tail] = e.To
					count++
					inQueue[e.To] = true
				}
			}
		}
		if u < len(r.ROverlay) {
			for _, e := range r.ROverlay[u] {
				if nd := du + int64(e.Weight); nd > dist[e.To] {
					dist[e.To] = nd
					relaxed++
					pathLen[e.To] = pathLen[u] + 1
					if int(pathLen[e.To]) >= n {
						s.Relaxations += relaxed
						s.abort(head, count, n)
						return ErrPositiveCycle
					}
					if !inQueue[e.To] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = e.To
						count++
						inQueue[e.To] = true
					}
				}
			}
		}
		if u < len(r.BoundaryFrom) && r.BoundaryTo[u] == int32(u) {
			// u is a band anchor: the band's boundary vertex carries the
			// virtual edge INTO u, so relax it backwards.
			if from := int(r.BoundaryFrom[u]); from >= 0 {
				if nd := du + int64(r.BoundaryWeight); nd > dist[from] {
					dist[from] = nd
					relaxed++
					pathLen[from] = pathLen[u] + 1
					if int(pathLen[from]) >= n {
						s.Relaxations += relaxed
						s.abort(head, count, n)
						return ErrPositiveCycle
					}
					if !inQueue[from] {
						tail := head + count
						if tail >= n {
							tail -= n
						}
						queue[tail] = from
						count++
						inQueue[from] = true
					}
				}
			}
		}
	}
	s.Relaxations += relaxed
	return nil
}
