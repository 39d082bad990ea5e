package bounds

import (
	"fmt"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Online incrementally maintains the extended bounds graph GE(r, sigma) of
// an online agent as its view grows. A fresh NewExtendedFromView pays the
// full O(V+E) construction at every new local state; Online exploits the
// monotone growth of the view — nodes and deliveries are only ever added —
// to extend the standing vertex and edge tables with just the delta: the
// nodes that entered the view since the last sync and their inboxes.
//
// The maintained graph is *answer-equivalent* to a fresh build, not
// byte-identical in layout: vertex ids are assigned in arrival order (the
// auxiliary psi band comes first so its ids never move), and superseded
// boundary edges E' are left in place because a stale boundary edge
// (p,k) --1--> psi_p is dominated by the successor chain to the current
// boundary followed by the fresh boundary edge, so it can change no
// longest-path distance and create no positive cycle. The one edge family
// that genuinely invalidates — E” edges psi_q --(-U)--> sender for leaving
// messages whose delivery later enters the view — is removed on sync.
// KnowledgeWeight/Knows answers therefore coincide exactly with a fresh
// NewExtendedFromView at every state, which TestOnlineMatchesFreshBuild
// asserts differentially.
//
// Beyond-horizon chain vertices are materialized per query exactly as in
// Extended.VertexOfGeneral and rolled back afterwards: a chain vertex's
// edges add no constraint between standing vertices (its only exit edge,
// back to its parent, is dominated by the E” edge that exists whenever the
// chain vertex does), so speculative queries leave no trace and the
// distances cached for RelaxFrom stay valid.
//
// Online is constructed once per agent and is not safe for concurrent use.
type Online struct {
	view *run.View
	g    *graph.Graph
	n    int

	// members[p-1] is the boundary index covered by the last sync (-1 if
	// the process had not entered the view); prev is its scratch copy so
	// the delivery pass can tell new nodes and senders from old ones.
	members []int
	prev    []int
	// vertexOf[p-1][k] is the vertex id of past node (p, k).
	vertexOf [][]int32
	// outCap/inCap[p-1] are the adjacency capacity hints for process p's
	// node vertices: a node's lifetime degrees are bounded by its process's
	// channel degrees (successor, boundary, per-channel delivery, backward
	// and leaving edges), so presizing makes vertex insertion one
	// allocation instead of per-edge append churn.
	outCap, inCap []int

	// scratch carries the SPFA buffers across queries; between syncs that
	// only ADD edges it still holds the fixpoint distances from cacheSrc,
	// so the next query from the same source re-relaxes only the delta.
	scratch    graph.Scratch
	cacheSrc   int
	cacheValid bool
	// seeds accumulates the sources of edges added since the last full
	// SPFA run from cacheSrc; querySeeds is its per-query working copy
	// (extended with the speculative chain edge sources).
	seeds      []int
	querySeeds []int

	// The reverse cache serves the inverted (Early-kind) query shape —
	// fixed target, moving source — by maintaining longest-path distances
	// INTO revCacheDst over the transposed graph. revSeeds accumulates the
	// HEADS of edges added since the last reverse relaxation; revRetired
	// records a leaving-edge removal since, which can lower reverse
	// distances on the aux band (and only there — node-vertex reverse
	// distances are knowledge weights, which persist), so the next warm
	// reverse run re-derives the band from auxRefresh (DESIGN.md §13).
	revScratch    graph.Scratch
	revCacheDst   int
	revCacheValid bool
	revSeeds      []int
	revQuerySeeds []int
	revRetired    bool
	auxRefresh    []int
	stats         HandleStats

	// Per-query chain-vertex state, rolled back after each query.
	chainKeys []chainKey
	chainIDs  []int
	undo      []chainUndo

	// Reusable QueryBatch working buffers (resolved endpoints and the
	// answered bitmap), kept on the engine so batches allocate nothing.
	batchUs, batchVs []int
	batchDone        []bool
}

// chainUndo records one speculative chain vertex for rollback.
type chainUndo struct {
	parent, eta, aux int
	lower, upper     int
}

// NewOnline wraps a growing view. The engine starts empty and absorbs the
// view's current content on the first query; it must observe every later
// state through the same View value.
func NewOnline(view *run.View) *Online {
	net := view.Net()
	n := net.N()
	o := &Online{
		view:        view,
		g:           graph.New(n),
		n:           n,
		members:     make([]int, n),
		prev:        make([]int, n),
		vertexOf:    make([][]int32, n),
		outCap:      make([]int, n),
		inCap:       make([]int, n),
		cacheSrc:    -1,
		revCacheDst: -1,
		auxRefresh:  make([]int, n),
	}
	for i := range o.members {
		o.members[i] = -1
		o.auxRefresh[i] = i
		p := model.ProcID(i + 1)
		outDeg := len(net.OutArcs(p))
		inDeg := len(net.InIDs(p))
		// Out: successor + boundary + one forward delivery edge per send.
		o.outCap[i] = 2 + outDeg
		// In: successor + one forward edge per in-channel + backward and
		// (transient) leaving edges per out-channel.
		o.inCap[i] = 2 + inDeg + 2*outDeg
	}
	// E''': one psi_to --(-U)--> psi_from edge per channel, fixed for the
	// lifetime of the engine. The auxiliary band occupies ids 0..n-1.
	for _, a := range net.Arcs() {
		o.g.AddEdge(o.aux(a.To), o.aux(a.From), -a.Bounds.Upper)
	}
	return o
}

// View returns the wrapped view.
func (o *Online) View() *run.View { return o.view }

// NumVertices returns the current number of standing vertices.
func (o *Online) NumVertices() int { return o.g.N() }

// NumEdges returns the current number of standing edges.
func (o *Online) NumEdges() int { return o.g.NumEdges() }

// aux returns the vertex id of psi_p.
func (o *Online) aux(p model.ProcID) int { return int(p) - 1 }

// vertex returns the vertex id of a past node known to be in the synced
// view.
func (o *Online) vertex(b run.BasicNode) int {
	return int(o.vertexOf[b.Proc-1][b.Index])
}

// Sync absorbs the view's growth since the last call: new timeline nodes
// (with their successor, boundary and leaving edges) and new deliveries
// (with their lower/upper edges, retiring the leaving edges they satisfy).
// Queries sync implicitly; the method is exposed for callers that want to
// pay the graph maintenance at a specific point.
func (o *Online) Sync() error {
	// A view holding a delivery over an unmodeled channel fails every sync,
	// exactly as a fresh build from the same view does at every state.
	if um := o.view.Unmodeled(); len(um) > 0 {
		ch := um[0].Channel()
		return fmt.Errorf("%w: %d->%d", model.ErrNoChannel, ch.From, ch.To)
	}
	net := o.view.Net()
	copy(o.prev, o.members)
	grew := false

	// Pass 1: extend the timelines — vertices, successor edges, the fresh
	// boundary edge and leaving edges for the new non-initial nodes. The
	// leaving check consults the fully-updated view, so a send whose
	// delivery arrives within this same sync never becomes leaving.
	for p := model.ProcID(1); int(p) <= o.n; p++ {
		cur := -1
		if bnd, ok := o.view.Boundary(p); ok {
			cur = bnd.Index
		}
		old := o.members[p-1]
		if cur == old {
			continue
		}
		grew = true
		for k := old + 1; k <= cur; k++ {
			vtx := o.g.AddVertexWithCaps(o.outCap[p-1], o.inCap[p-1])
			o.vertexOf[p-1] = append(o.vertexOf[p-1], int32(vtx))
			if o.revCacheValid {
				// Reverse seeds are edge HEADS: the new vertex heads its
				// successor edge and any leaving edges added below.
				o.revSeeds = append(o.revSeeds, vtx)
			}
			if k > 0 {
				prev := int(o.vertexOf[p-1][k-1])
				o.g.AddEdge(prev, vtx, 1)
				o.seeds = append(o.seeds, prev)
			}
		}
		bndV := int(o.vertexOf[p-1][cur])
		o.g.AddEdge(bndV, o.aux(p), 1)
		o.seeds = append(o.seeds, bndV)
		if o.revCacheValid {
			o.revSeeds = append(o.revSeeds, o.aux(p))
		}
		first := old + 1
		if first < 1 {
			first = 1
		}
		for k := first; k <= cur; k++ {
			from := run.BasicNode{Proc: p, Index: k}
			for _, a := range net.OutArcs(p) {
				if _, ok := o.view.DeliveryTo(from, a.To); !ok {
					o.g.AddEdge(o.aux(a.To), int(o.vertexOf[p-1][k]), -a.Bounds.Upper)
					o.seeds = append(o.seeds, o.aux(a.To))
				}
			}
		}
		o.members[p-1] = cur
	}

	// Pass 2: wire the new deliveries — the inboxes of the nodes pass 1
	// added (a view holds every delivery into each of its nodes). A
	// delivery whose sender predates this sync retires the leaving edge
	// recorded for it earlier.
	//
	// Removal does NOT invalidate the cached distances: per-state fresh
	// distances are pointwise non-decreasing — on node vertices they are,
	// by Theorem 4, exactly the knowledge weights against the (fixed)
	// cached source, and knowledge is persistent; on the auxiliary band
	// every input is a boundary edge whose support only strengthens,
	// propagated through the fixed E''' edges. The cache therefore stays a
	// valid under-approximating warm start, every surviving edge it
	// satisfied remains satisfied, and re-relaxing from the added edges'
	// sources converges to the exact new fixpoint. The differential test
	// pins this equality on every state.
	for i := range o.members {
		for k := o.prev[i] + 1; k <= o.members[i]; k++ {
			to := run.BasicNode{Proc: model.ProcID(i + 1), Index: k}
			v := o.vertex(to)
			for _, a := range o.view.Inbox(to) {
				bd := net.BoundsOf(a.Chan)
				u := o.vertex(a.From)
				o.g.AddEdge(u, v, bd.Lower)
				o.g.AddEdge(v, u, -bd.Upper)
				o.seeds = append(o.seeds, u, v)
				if o.revCacheValid {
					o.revSeeds = append(o.revSeeds, u, v)
				}
				if a.From.Index <= o.prev[a.From.Proc-1] {
					if !o.g.RemoveEdge(o.aux(to.Proc), u, -bd.Upper) {
						return fmt.Errorf("bounds: online sync lost the leaving edge of %s->%d", a.From, to.Proc)
					}
					// The retirement can lower reverse distances on the aux
					// band; the next warm reverse run must re-derive it.
					o.revRetired = o.revRetired || o.revCacheValid
				}
			}
		}
	}
	if grew && !o.cacheValid {
		o.seeds = o.seeds[:0]
	}
	return nil
}

// vertexOfGeneral mirrors Extended.VertexOfGeneral on the maintained graph,
// materializing speculative chain vertices recorded in o.undo.
func (o *Online) vertexOfGeneral(theta run.GeneralNode) (int, error) {
	net := o.view.Net()
	if err := theta.Valid(net); err != nil {
		return 0, err
	}
	if !o.view.Contains(theta.Base) {
		return 0, fmt.Errorf("%w: %s", ErrNotRecognized, theta)
	}
	if theta.Path.Hops() == 0 {
		// Basic node: no chain to resolve, no prefix slice to allocate.
		return o.vertex(theta.Base), nil
	}
	prefix, hops := o.view.ResolvePrefix(theta)
	cur := prefix[len(prefix)-1]
	if hops == theta.Path.Hops() {
		return o.vertex(cur), nil
	}
	if cur.IsInitial() {
		return 0, fmt.Errorf("%w: %s stalls at %s", ErrInitialChain, theta, cur)
	}
	curVertex := o.vertex(cur)
	for k := hops + 1; k <= theta.Path.Hops(); k++ {
		from, to := theta.Path[k-1], theta.Path[k]
		key := chainKey{parent: int32(curVertex), to: to}
		next := -1
		for i := range o.chainKeys {
			if o.chainKeys[i] == key {
				next = o.chainIDs[i]
				break
			}
		}
		if next < 0 {
			bd, berr := net.ChanBounds(from, to)
			if berr != nil {
				return 0, berr
			}
			next = o.g.AddVertex()
			o.chainKeys = append(o.chainKeys, key)
			o.chainIDs = append(o.chainIDs, next)
			o.g.AddEdge(curVertex, next, bd.Lower)
			o.g.AddEdge(next, curVertex, -bd.Upper)
			o.g.AddEdge(o.aux(to), next, 0)
			o.undo = append(o.undo, chainUndo{
				parent: curVertex, eta: next, aux: o.aux(to),
				lower: bd.Lower, upper: bd.Upper,
			})
		}
		curVertex = next
	}
	return curVertex, nil
}

// rollback removes the speculative chain vertices of the current query,
// restoring the standing graph (and forgetting their cached distances).
func (o *Online) rollback(base int) {
	for i := len(o.undo) - 1; i >= 0; i-- {
		u := o.undo[i]
		o.g.RemoveEdge(u.aux, u.eta, 0)
		o.g.RemoveEdge(u.eta, u.parent, -u.upper)
		o.g.RemoveEdge(u.parent, u.eta, u.lower)
	}
	for o.g.N() > base {
		o.g.PopVertex()
	}
	o.undo = o.undo[:0]
	o.chainKeys = o.chainKeys[:0]
	o.chainIDs = o.chainIDs[:0]
	o.scratch.Truncate(base)
	o.revScratch.Truncate(base)
}

// KnowledgeWeight computes kw = max{ x : K_sigma(theta1 --x--> theta2) },
// the strongest timed precedence between theta1 and theta2 known at the
// view's current state, agreeing exactly with
// Extended.KnowledgeWeight on a fresh build from the same view. known is
// false — with err == nil — when no bound is known at any x. (Witness
// steps are an offline concern; online agents decide on the weight alone.)
func (o *Online) KnowledgeWeight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	if err := o.Sync(); err != nil {
		return 0, false, err
	}
	base := o.g.N()
	u, err := o.vertexOfGeneral(theta1)
	if err != nil {
		o.rollback(base)
		return 0, false, err
	}
	v, err := o.vertexOfGeneral(theta2)
	if err != nil {
		o.rollback(base)
		return 0, false, err
	}

	// The chain edges materialized above relax into the standing distances
	// without disturbing them (see the type comment), so a cached run from
	// the same source only needs the accumulated delta seeds.
	var dist []int64
	switch {
	case o.cacheValid && u == o.cacheSrc:
		o.querySeeds = append(o.querySeeds[:0], o.seeds...)
		for i := range o.undo {
			o.querySeeds = append(o.querySeeds, o.undo[i].parent, o.undo[i].aux)
		}
		dist, err = o.g.RelaxFrom(&o.scratch, o.querySeeds)
	case v < base && (o.cacheValid || o.revCacheValid):
		// The forward cache exists but misses (the source moved between
		// queries — the Early shape) or the reverse cache is already warm:
		// answer from distances INTO the standing target instead, reading
		// the source's entry. A cold engine never lands here, so Late-kind
		// agents establish the forward cache as before.
		if o.revCacheValid && v == o.revCacheDst {
			o.revQuerySeeds = append(o.revQuerySeeds[:0], o.revSeeds...)
			for i := range o.undo {
				// The chain vertex heads its parent's exit edge; deeper
				// chain hops cascade from it.
				o.revQuerySeeds = append(o.revQuerySeeds, o.undo[i].parent)
			}
			var refresh []int
			if o.revRetired {
				refresh = o.auxRefresh
				o.stats.BandRefreshes++
			}
			dist, err = o.g.RelaxReverseFrom(&o.revScratch, o.revQuerySeeds, refresh)
			o.stats.RevHits++
		} else {
			dist, err = o.g.LongestIntoWith(&o.revScratch, v)
			o.revCacheDst = v
			o.revCacheValid = true
			o.stats.RevRebuilds++
		}
		o.stats.RevRelaxations += o.revScratch.Relaxations
		o.revScratch.Relaxations = 0
		if err != nil {
			o.revCacheValid = false
			o.rollback(base)
			return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
		}
		o.revSeeds = o.revSeeds[:0]
		o.revRetired = false
		// The forward cache this branch answers around keeps collecting
		// seeds at every sync. Once they outnumber the vertices a warm
		// restart costs no less than a cold run, so drop it.
		if len(o.seeds) > base {
			o.cacheValid = false
			o.seeds = o.seeds[:0]
		}
		w, reachable := int(dist[u]), dist[u] != graph.NegInf
		o.rollback(base)
		if !reachable {
			return 0, false, nil
		}
		return w, true, nil
	default:
		dist, err = o.g.LongestWith(&o.scratch, u)
		o.cacheSrc = u
		o.cacheValid = u < base
	}
	if err != nil {
		o.cacheValid = false
		o.rollback(base)
		return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
	}
	// Either way the scratch now holds the fixpoint over every standing
	// edge, so the delta restarts empty.
	o.seeds = o.seeds[:0]
	w, reachable := int(dist[v]), dist[v] != graph.NegInf
	o.rollback(base)
	if !reachable {
		return 0, false, nil
	}
	return w, true, nil
}

// Stats returns the engine's cumulative reverse-cache counters.
func (o *Online) Stats() HandleStats { return o.stats }

// Weight is the weight-only query of the batched plane. Online never
// materializes witnesses, so it coincides with KnowledgeWeight; it exists so
// Extended, Online and Handle expose one weight-only contract.
func (o *Online) Weight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	return o.KnowledgeWeight(theta1, theta2)
}

// Knows reports whether K_sigma(theta1 --x--> theta2) holds at the view's
// current state, agreeing exactly with Extended.Knows on a fresh build.
func (o *Online) Knows(theta1 run.GeneralNode, x int, theta2 run.GeneralNode) (bool, error) {
	kw, known, err := o.KnowledgeWeight(theta1, theta2)
	if err != nil {
		return false, err
	}
	return known && kw >= x, nil
}

// KnowsAt evaluates a threshold grid against one weight computation:
// holds[i] is set to Knows(theta1, xs[i], theta2) for the price of a single
// (possibly cache-warm) SPFA. holds must have at least len(xs) entries. The
// grid answers count as batched queries: len(xs) served, len(xs)-1 of them
// without their own relaxation.
func (o *Online) KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error) {
	kw, known, err = o.KnowledgeWeight(theta1, theta2)
	if err != nil {
		return 0, false, err
	}
	for i, x := range xs {
		holds[i] = known && kw >= x
	}
	o.stats.BatchQueries += int64(len(xs))
	o.stats.BatchHits += int64(len(xs) - 1)
	return kw, known, nil
}
