package bounds

import (
	"errors"
	"fmt"
	"sync"

	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// Shared is the run-lifetime tier of the knowledge engine hierarchy
// (NetworkEngine → PrefixEngine → Shared → Handle): one standing extended
// graph, grown
// over the union of every subscribed agent's view, serving all of them. A
// live run with m knowledge-based agents would otherwise maintain m
// bounds.Online engines whose graphs overlap almost entirely — every agent's
// view is a restriction of the same run — so the standing vertex and edge
// tables are built once here and each agent keeps only what is genuinely
// its own: a Handle with its view frontier, its private E” horizon edges
// and a leased query scratch. Everything that depends only on the network —
// the aux band prototype, presizing hints, dedup tables and the scratch
// pool — lives one tier up in the NetworkEngine, so runs of one topology
// share it instead of re-deriving it (NetworkEngine.NewRun).
//
// The standing graph holds exactly the frontier-independent material of
// Definition 16:
//
//   - node vertices in arrival order (the auxiliary psi band first, at fixed
//     ids 0..n-1, so a handle's frontier is a per-process-band prefix mask),
//   - successor edges and delivery edge pairs (induced GB(r, sigma)),
//   - the fixed E”' psi-to-psi channel edges.
//
// The two frontier-dependent families never enter the standing tables. E'
// boundary edges are a pure function of the frontier, so queries relax them
// virtually (graph.Restriction.BoundaryTo). E” edges — psi_q to the sender
// of a message whose delivery the agent has not seen — differ per agent: a
// delivery inside the run but beyond an agent's frontier must still
// constrain that agent. Each handle therefore maintains its own E” set as
// a per-psi overlay adjacency, retiring entries exactly as bounds.Online
// removes its leaving edges.
//
// A query relaxes the standing graph restricted to the handle's frontier
// (graph.LongestRestricted / RelaxRestrictedFrom), which by construction is
// vertex-for-vertex the extended graph a fresh NewExtendedFromView would
// build on the agent's view — plus dominated stale material outside the
// frontier that the mask hides — so Knows/KnowledgeWeight answers coincide
// exactly with fresh per-view builds at every state
// (TestSharedMatchesFreshBuild asserts this differentially).
//
// Shared is safe for concurrent use by multiple handles: engine growth and
// speculative chain vertices are serialized by one mutex (the live
// environment's lockstep already serializes agents; the lock makes the
// engine honest under any schedule), and the scratch pool is serialized by
// the NetworkEngine's own mutex. A Handle belongs to a single agent
// goroutine. Distinct runs stamped from one NetworkEngine never contend:
// their standing graphs are independent clones of the immutable aux
// prototype.
type Shared struct {
	mu  sync.Mutex
	eng *NetworkEngine
	n   int
	g   *graph.Graph

	// members[p-1] is the highest node index of process p absorbed into the
	// standing graph (-1 if none): the union frontier over all handles.
	members []int
	// vertexOf[p-1][k] is the vertex id of node (p, k).
	vertexOf [][]int32
	// band/idx are the graph.Restriction coordinates, one entry per vertex:
	// aux and chain vertices are always visible, node (p, k) carries
	// (p-1, k).
	band, idx []int32
	// delivered dedupes delivery absorption across handles. Every handle
	// re-reports each delivery out of its own log, so the check runs
	// m times per delivery: it is a per-sender-vertex bitmask over the
	// sender's out-arc positions (the engine's chanBit table), one load and
	// a bit test, rather than a hash lookup. wide falls back to a map for
	// networks with out-degree beyond one mask word.
	delivered []uint64
	wide      map[int64]struct{}

	// pendingKey is the run fingerprint this Shared was stamped towards by
	// NewRunAt on a cache miss: CommitPrefix freezes the standing state into
	// the engine's prefix cache under it. Zero means nothing to commit
	// (plain NewRun, or already committed). fromPrefix records that the
	// standing state started from a frozen prefix rather than empty.
	pendingKey uint64
	fromPrefix bool
}

// NewShared builds the engine for one run over net. It is the compatibility
// constructor from before the network tier existed: it derives a private
// NetworkEngine and stamps one run out of it. Callers running many runs of
// one network (sweeps, the live environment) should build the engine once
// with NewNetworkEngine and call NewRun per run instead.
func NewShared(net *model.Network) *Shared {
	return NewNetworkEngine(net).NewRun()
}

// Net returns the network the engine serves.
func (s *Shared) Net() *model.Network { return s.eng.net }

// FromPrefix reports whether this run's standing state was stamped from a
// frozen prefix (a NewRunAt cache hit) rather than grown from empty.
func (s *Shared) FromPrefix() bool { return s.fromPrefix }

// CommitPrefix freezes the standing state — graph, frontier, vertex and
// coordinate tables, dedup state — into the network engine's prefix cache
// under the fingerprint this Shared was stamped towards by NewRunAt, and
// reports whether it committed. It is a no-op (false) on Shareds with
// nothing pending: plain NewRun stamps, NewRunAt hits, and repeat calls.
//
// Callers commit once the run's material has been fully absorbed (every
// agent synced through its final state), so the frozen snapshot stands in
// for the whole run. Committing earlier is sound but caches less: stamped
// runs absorb the difference through ordinary handle syncs. The freeze
// aliases the graph and coordinate backing per the graph.Clone
// freeze-and-extend contract, so this Shared remains fully usable after
// committing — later appends land beyond the frozen lengths and speculative
// chain material is added and removed strictly above them.
func (s *Shared) CommitPrefix() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingKey == 0 {
		return false
	}
	fz := &frozenPrefix{
		g:         s.g.Clone(),
		members:   append([]int(nil), s.members...),
		vertexOf:  make([][]int32, s.n),
		band:      s.band[:len(s.band):len(s.band)],
		idx:       s.idx[:len(s.idx):len(s.idx)],
		delivered: append([]uint64(nil), s.delivered...),
	}
	for i, vs := range s.vertexOf {
		fz.vertexOf[i] = vs[:len(vs):len(vs)]
	}
	if s.wide != nil {
		fz.wide = make(map[int64]struct{}, len(s.wide))
		for k := range s.wide {
			fz.wide[k] = struct{}{}
		}
	}
	s.eng.stats.cloneBytes.Add(s.g.CloneBytes())
	s.eng.prefixes.insert(s.pendingKey, fz)
	s.pendingKey = 0
	return true
}

// NumVertices returns the current number of standing vertices.
func (s *Shared) NumVertices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.N()
}

// NumEdges returns the current number of standing edges.
func (s *Shared) NumEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.NumEdges()
}

// absorbTimeline extends process p's standing vertices (and successor
// edges) through node index cur. Callers hold s.mu.
func (s *Shared) absorbTimeline(p model.ProcID, cur int) {
	for k := s.members[p-1] + 1; k <= cur; k++ {
		vtx := s.g.AddVertexWithCaps(s.eng.outCap[p-1], s.eng.inCap[p-1])
		s.vertexOf[p-1] = append(s.vertexOf[p-1], int32(vtx))
		s.band = append(s.band, int32(p-1))
		s.idx = append(s.idx, int32(k))
		s.delivered = append(s.delivered, 0)
		if k > 0 {
			s.g.AddEdge(int(s.vertexOf[p-1][k-1]), vtx, 1)
		}
	}
	s.members[p-1] = cur
}

// absorbDelivery adds the standing lower/upper edge pair of one delivery,
// once across all handles. Callers hold s.mu and have absorbed both
// endpoint timelines. delivered is indexed past the aux band, so the
// sender vertex u is always >= n.
func (s *Shared) absorbDelivery(u, v int, ch model.ChanID, bd model.Bounds) {
	if s.wide != nil {
		key := int64(u)<<20 | int64(ch)
		if _, ok := s.wide[key]; ok {
			return
		}
		s.wide[key] = struct{}{}
	} else {
		bit := uint64(1) << s.eng.chanBit[ch]
		if s.delivered[u-s.n]&bit != 0 {
			return
		}
		s.delivered[u-s.n] |= bit
	}
	s.g.AddEdge(u, v, bd.Lower)
	s.g.AddEdge(v, u, -bd.Upper)
}

// Handle is one agent's subscription to a Shared engine: the agent's view
// frontier (per-process boundary watermarks doubling as the restriction
// limits), its private E” overlay, its accumulated re-relaxation seeds and
// its leased scratch. A Handle is owned by one goroutine; concurrent
// handles of the same engine are safe against each other.
type Handle struct {
	shared *Shared
	view   *run.View

	// members[p-1] is the boundary index covered by the last sync (-1 if
	// the process had not entered the view); prev is its scratch copy so
	// the delivery pass can tell new nodes and senders from old ones;
	// limit mirrors members as the graph.Restriction limits.
	members []int
	prev    []int
	limit   []int32
	// vis is the handle's per-vertex visibility mask over the standing
	// graph (the graph.Restriction.Visible array): true for the aux band
	// and for this agent's in-frontier node vertices, false for vertices
	// other agents forced into the standing graph. Extended on every sync;
	// chain vertices are appended true per query and truncated on rollback.
	vis []bool
	// overlay[q-1] holds the agent's live E'' edges out of psi_q.
	overlay [][]graph.Edge

	// scratch is leased from the engine pool; between syncs it holds the
	// fixpoint distances from cacheSrc under this handle's frontier, so the
	// next query from the same source re-relaxes only the delta. seeds
	// accumulates the sources of edges that became visible to this handle
	// since; querySeeds is its per-query working copy.
	scratch    *graph.Scratch
	cacheSrc   int
	cacheValid bool
	seeds      []int
	querySeeds []int
	// admitted accumulates the vertices that entered this handle's frontier
	// since the last relaxation, so the warm restart drops their
	// masked-distance sentinels (see graph.RelaxRestrictedFrom).
	admitted []int

	// The reverse cache serves the inverted (Early-kind) query shape: the
	// target is fixed while the source moves with the agent, so u ==
	// cacheSrc never holds and the forward cache is useless. revScratch —
	// leased only once the shape appears, so Late-kind agents never pay for
	// it — holds the fixpoint of longest-path distances INTO revCacheDst
	// under this handle's frontier. The delta lists mirror the forward
	// cache's with reverse orientation: revSeeds accumulates the HEADS of
	// edges that became visible since the last reverse relaxation,
	// revAdmitted the newly admitted vertices. revRetired records that an
	// E'' overlay entry retired since: retirement can LOWER reverse
	// distances on the aux band (and only there — node-vertex reverse
	// distances are knowledge weights, which persist), so the next warm
	// reverse run re-derives the whole band (DESIGN.md §13).
	revScratch    *graph.Scratch
	revCacheDst   int
	revCacheValid bool
	revSeeds      []int
	revQuerySeeds []int
	revAdmitted   []int
	revRetired    bool
	// roverlay mirrors overlay transposed — the agent's E'' edges keyed by
	// their head (sender) vertex — feeding graph.Restriction.ROverlay; bfrom
	// holds the handle's per-band boundary vertex for
	// graph.Restriction.BoundaryFrom. Like the reverse scratch, the mirror is
	// lazy: revEnabled is set by the first reverse query, which transposes the
	// overlay accumulated so far; until then sync skips all reverse
	// bookkeeping, so handles that never see the Early shape pay nothing.
	revEnabled bool
	roverlay   [][]graph.Edge
	bfrom      []int32

	// stats counts this handle's reverse-cache activity for per-cell
	// attribution (the engine's atomic counters aggregate across every
	// concurrent handle of a network, so they cannot be read per agent).
	stats HandleStats

	// Per-query chain-vertex state, rolled back after each query.
	chainKeys []chainKey
	chainIDs  []int
	undo      []chainUndo

	// Reusable QueryBatch working buffers (resolved endpoints and the
	// answered bitmap), kept on the handle so batches allocate nothing.
	batchUs, batchVs []int
	batchDone        []bool
}

// HandleStats counts one handle's (or one Online engine's) reverse-cache
// activity — warm reverse restarts, full reverse rebuilds, aux-band
// refreshes and the SPFA relaxations spent on the reverse side — plus its
// batched-query plane: BatchQueries counts answers served through KnowsAt /
// QueryBatch, BatchHits the subset answered from an already-computed
// distance array (no SPFA of their own). The engine-level EngineStats
// aggregates the same counters across all handles.
type HandleStats struct {
	RevHits        int64
	RevRebuilds    int64
	BandRefreshes  int64
	RevRelaxations int64
	BatchQueries   int64
	BatchHits      int64
}

// Add accumulates other into st.
func (st *HandleStats) Add(other HandleStats) {
	st.RevHits += other.RevHits
	st.RevRebuilds += other.RevRebuilds
	st.BandRefreshes += other.BandRefreshes
	st.RevRelaxations += other.RevRelaxations
	st.BatchQueries += other.BatchQueries
	st.BatchHits += other.BatchHits
}

// Stats returns the handle's cumulative reverse-cache counters. Unlike the
// scratch, they survive Release, so post-run harvesting works on released
// handles.
func (h *Handle) Stats() HandleStats { return h.stats }

// ErrViewMismatch reports a view subscribed to an engine of a structurally
// different network.
var ErrViewMismatch = errors.New("bounds: view of a different network")

// NewHandle subscribes a growing view to the engine. The handle starts
// empty and absorbs the view's current content on the first query; it must
// observe every later state through the same View value. It returns
// ErrViewMismatch if the view lives in a structurally different network
// than the engine (a wiring bug, like adding an edge to a foreign vertex);
// a distinct but content-equal *model.Network value — sweeps rebuild equal
// topologies per scenario variant — is accepted, since every table the
// engine derives (channel ids, bounds, adjacency, dedup bits) is a function
// of the network's content fingerprint.
func (s *Shared) NewHandle(view *run.View) (*Handle, error) {
	if vn := view.Net(); vn != s.eng.net && vn.Fingerprint() != s.eng.net.Fingerprint() {
		return nil, fmt.Errorf("%w: view fingerprint %x, engine fingerprint %x",
			ErrViewMismatch, view.Net().Fingerprint(), s.eng.net.Fingerprint())
	}
	s.mu.Lock()
	standing := s.g.N()
	s.mu.Unlock()
	visCap := 4 * s.n
	if standing > visCap {
		visCap = standing
	}
	h := &Handle{
		shared:      s,
		view:        view,
		members:     make([]int, s.n),
		prev:        make([]int, s.n),
		limit:       make([]int32, s.n),
		overlay:     make([][]graph.Edge, s.n),
		bfrom:       make([]int32, s.n),
		vis:         make([]bool, s.n, visCap),
		cacheSrc:    -1,
		revCacheDst: -1,
	}
	for i := range h.members {
		h.members[i] = -1
		h.limit[i] = -1
		h.bfrom[i] = -1
		h.vis[i] = true // the aux band is visible to every handle
	}
	h.scratch = s.eng.leaseScratch()
	return h, nil
}

// View returns the subscribed view.
func (h *Handle) View() *run.View { return h.view }

// Release returns the handle's scratch to the network engine's pool. An
// agent that has made its last query (Protocol2 after acting) releases so
// later subscribers — of this run or any later run of the network — reuse
// the buffers; a released handle that queries again simply leases a fresh
// scratch and rebuilds its cache.
func (h *Handle) Release() {
	if h.scratch != nil {
		h.shared.eng.releaseScratch(h.scratch)
		h.scratch = nil
	}
	h.cacheValid = false
	if h.revScratch != nil {
		h.shared.eng.releaseScratch(h.revScratch)
		h.revScratch = nil
	}
	h.revCacheValid = false
}

// vertex returns the standing vertex id of a node known to be absorbed.
func (h *Handle) vertex(b run.BasicNode) int {
	return int(h.shared.vertexOf[b.Proc-1][b.Index])
}

// Sync absorbs the view's growth since the last call into the engine (new
// timelines and deliveries become standing material, deduplicated across
// handles) and into the handle (frontier limits, E” overlay, re-relaxation
// seeds). Queries sync implicitly.
func (h *Handle) Sync() error {
	s := h.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.sync()
}

// sync is Sync with s.mu held.
func (h *Handle) sync() error {
	// A view holding a delivery over an unmodeled channel fails every sync,
	// exactly as a fresh build from the same view does at every state.
	if um := h.view.Unmodeled(); len(um) > 0 {
		ch := um[0].Channel()
		return fmt.Errorf("%w: %d->%d", model.ErrNoChannel, ch.From, ch.To)
	}
	s := h.shared
	net := h.view.Net()
	copy(h.prev, h.members)
	grew := false

	// Pass 1: frontiers. The engine's union frontier grows to cover this
	// view; the handle records its own boundary watermarks, seeds the
	// successor edges that just became visible to it and the moved virtual
	// boundary edge, and adds E'' overlay entries for the new nodes' sends
	// that its view has not seen delivered. The leaving check consults the
	// fully-updated view, so a send whose delivery arrives within this same
	// sync never enters the overlay.
	for p := model.ProcID(1); int(p) <= s.n; p++ {
		cur := -1
		if bnd, ok := h.view.Boundary(p); ok {
			cur = bnd.Index
		}
		old := h.members[p-1]
		if cur == old {
			continue
		}
		grew = true
		if cur > s.members[p-1] {
			s.absorbTimeline(p, cur)
		}
		for len(h.vis) < s.g.N() {
			h.vis = append(h.vis, false)
		}
		for k := old + 1; k <= cur; k++ {
			h.vis[s.vertexOf[p-1][k]] = true
			h.admitted = append(h.admitted, int(s.vertexOf[p-1][k]))
			if k > 0 {
				h.seeds = append(h.seeds, int(s.vertexOf[p-1][k-1]))
			}
			if h.revCacheValid {
				// Reverse seeds are edge HEADS: the new vertex heads its
				// predecessor's successor edge (and its own sends' E''
				// entries).
				h.revAdmitted = append(h.revAdmitted, int(s.vertexOf[p-1][k]))
				h.revSeeds = append(h.revSeeds, int(s.vertexOf[p-1][k]))
			}
		}
		h.seeds = append(h.seeds, int(s.vertexOf[p-1][cur]))
		if h.revCacheValid {
			// The moved virtual boundary edge: its tail is the new boundary
			// vertex (forward seed above), its head the band's psi anchor.
			h.revSeeds = append(h.revSeeds, int(p)-1)
		}
		h.bfrom[p-1] = s.vertexOf[p-1][cur]
		first := old + 1
		if first < 1 {
			first = 1
		}
		for k := first; k <= cur; k++ {
			from := run.BasicNode{Proc: p, Index: k}
			for _, a := range net.OutArcs(p) {
				if _, ok := h.view.DeliveryTo(from, a.To); !ok {
					sender := int(s.vertexOf[p-1][k])
					h.overlay[a.To-1] = append(h.overlay[a.To-1], graph.Edge{
						To: sender, Weight: -a.Bounds.Upper,
					})
					if h.revEnabled {
						h.addROverlay(sender, int(a.To)-1, -a.Bounds.Upper)
					}
					h.seeds = append(h.seeds, int(a.To)-1)
				}
			}
		}
		h.members[p-1] = cur
		h.limit[p-1] = int32(cur)
	}
	// Cover vertices other handles appended since this handle's last sync:
	// they stay invisible here, but the mask must span the standing graph.
	for len(h.vis) < s.g.N() {
		h.vis = append(h.vis, false)
	}

	// Pass 2: wire the new deliveries — the inboxes of the nodes pass 1
	// admitted (a view holds every delivery into each of its nodes). The
	// standing edge pair is added once across all handles; a delivery whose
	// sender predates this sync retires the overlay entry recorded for it
	// earlier. As with bounds.Online, retirement does not invalidate the
	// cached distances: per-state fresh distances of this agent are
	// pointwise non-decreasing (knowledge is persistent), so the cache stays
	// a valid under-approximating warm start and re-relaxing from the added
	// edges' sources converges to the exact new fixpoint.
	for i := range h.members {
		for k := h.prev[i] + 1; k <= h.members[i]; k++ {
			to := run.BasicNode{Proc: model.ProcID(i + 1), Index: k}
			v := h.vertex(to)
			for _, a := range h.view.Inbox(to) {
				bd := net.BoundsOf(a.Chan)
				u := h.vertex(a.From)
				s.absorbDelivery(u, v, a.Chan, bd)
				h.seeds = append(h.seeds, u, v)
				if h.revCacheValid {
					h.revSeeds = append(h.revSeeds, u, v)
				}
				if a.From.Index <= h.prev[a.From.Proc-1] {
					if !removeOverlayEdge(&h.overlay[i], u, -bd.Upper) {
						return fmt.Errorf("bounds: shared handle lost the E'' edge of %s->%d", a.From, to.Proc)
					}
					if h.revEnabled {
						if u >= len(h.roverlay) || !removeOverlayEdge(&h.roverlay[u], i, -bd.Upper) {
							return fmt.Errorf("bounds: shared handle lost the reverse E'' edge of %s->%d", a.From, to.Proc)
						}
					}
					// Retirement can lower reverse distances on the aux band;
					// the next warm reverse run must re-derive it before
					// trusting the cache.
					h.revRetired = h.revRetired || h.revCacheValid
				}
			}
		}
	}
	if grew && !h.cacheValid {
		h.seeds = h.seeds[:0]
		h.admitted = h.admitted[:0]
	}
	return nil
}

// addROverlay appends one transposed E” entry (head sender -> psi band
// vertex q) to the reverse overlay, growing the outer table on demand.
func (h *Handle) addROverlay(sender, q, w int) {
	for len(h.roverlay) <= sender {
		h.roverlay = append(h.roverlay, nil)
	}
	h.roverlay[sender] = append(h.roverlay[sender], graph.Edge{To: q, Weight: w})
}

// enableReverse begins reverse bookkeeping on first use: the forward overlay
// accumulated so far is transposed into roverlay, and from now on sync keeps
// the mirror in step.
func (h *Handle) enableReverse() {
	h.revEnabled = true
	for q := range h.overlay {
		for _, e := range h.overlay[q] {
			h.addROverlay(e.To, q, e.Weight)
		}
	}
}

// removeOverlayEdge swap-deletes one overlay entry; order is irrelevant
// (overlays only feed relaxation).
func removeOverlayEdge(es *[]graph.Edge, to, w int) bool {
	s := *es
	for i := range s {
		if s[i].To == to && s[i].Weight == w {
			last := len(s) - 1
			s[i] = s[last]
			*es = s[:last]
			return true
		}
	}
	return false
}

// vertexOfGeneral mirrors Online.vertexOfGeneral on the standing graph,
// materializing speculative chain vertices (always visible, recorded in
// h.undo for rollback) for hops beyond the handle's view.
func (h *Handle) vertexOfGeneral(theta run.GeneralNode) (int, error) {
	s := h.shared
	net := h.view.Net()
	if err := theta.Valid(net); err != nil {
		return 0, err
	}
	if !h.view.Contains(theta.Base) {
		return 0, fmt.Errorf("%w: %s", ErrNotRecognized, theta)
	}
	if theta.Path.Hops() == 0 {
		// Basic node: no chain to resolve, no prefix slice to allocate.
		return h.vertex(theta.Base), nil
	}
	prefix, hops := h.view.ResolvePrefix(theta)
	cur := prefix[len(prefix)-1]
	if hops == theta.Path.Hops() {
		return h.vertex(cur), nil
	}
	if cur.IsInitial() {
		return 0, fmt.Errorf("%w: %s stalls at %s", ErrInitialChain, theta, cur)
	}
	curVertex := h.vertex(cur)
	for k := hops + 1; k <= theta.Path.Hops(); k++ {
		from, to := theta.Path[k-1], theta.Path[k]
		key := chainKey{parent: int32(curVertex), to: to}
		next := -1
		for i := range h.chainKeys {
			if h.chainKeys[i] == key {
				next = h.chainIDs[i]
				break
			}
		}
		if next < 0 {
			bd, berr := net.ChanBounds(from, to)
			if berr != nil {
				return 0, berr
			}
			next = s.g.AddVertex()
			s.band = append(s.band, 0)
			s.idx = append(s.idx, graph.AlwaysVisible)
			h.vis = append(h.vis, true)
			h.chainKeys = append(h.chainKeys, key)
			h.chainIDs = append(h.chainIDs, next)
			s.g.AddEdge(curVertex, next, bd.Lower)
			s.g.AddEdge(next, curVertex, -bd.Upper)
			s.g.AddEdge(int(to)-1, next, 0)
			h.undo = append(h.undo, chainUndo{
				parent: curVertex, eta: next, aux: int(to) - 1,
				lower: bd.Lower, upper: bd.Upper,
			})
		}
		curVertex = next
	}
	return curVertex, nil
}

// rollback removes this query's speculative chain vertices, restoring the
// standing graph and forgetting their cached distances.
func (h *Handle) rollback(base int) {
	s := h.shared
	for i := len(h.undo) - 1; i >= 0; i-- {
		u := h.undo[i]
		s.g.RemoveEdge(u.aux, u.eta, 0)
		s.g.RemoveEdge(u.eta, u.parent, -u.upper)
		s.g.RemoveEdge(u.parent, u.eta, u.lower)
	}
	for s.g.N() > base {
		s.g.PopVertex()
	}
	s.band = s.band[:base]
	s.idx = s.idx[:base]
	h.vis = h.vis[:base]
	h.undo = h.undo[:0]
	h.chainKeys = h.chainKeys[:0]
	h.chainIDs = h.chainIDs[:0]
	h.scratch.Truncate(base)
	if h.revScratch != nil {
		h.revScratch.Truncate(base)
	}
}

// KnowledgeWeight computes kw = max{ x : K_sigma(theta1 --x--> theta2) } at
// the agent's current state, agreeing exactly with
// Extended.KnowledgeWeight on a fresh build from the agent's view (and with
// bounds.Online). known is false — with err == nil — when no bound is known
// at any x.
func (h *Handle) KnowledgeWeight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	s := h.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := h.sync(); err != nil {
		return 0, false, err
	}
	if h.scratch == nil {
		h.scratch = s.eng.leaseScratch()
	}
	base := s.g.N()
	u, err := h.vertexOfGeneral(theta1)
	if err != nil {
		h.rollback(base)
		return 0, false, err
	}
	v, err := h.vertexOfGeneral(theta2)
	if err != nil {
		h.rollback(base)
		return 0, false, err
	}

	r := graph.Restriction{
		Visible: h.vis,
		Band:    s.band, Idx: s.idx, Limit: h.limit,
		Overlay: h.overlay, ROverlay: h.roverlay,
		BoundaryTo: s.eng.boundaryTo, BoundaryWeight: 1,
		BoundaryFrom: h.bfrom,
	}
	// The chain edges materialized above relax into the standing distances
	// without disturbing them, forward and reverse alike (their exit edges
	// are dominated, exactly as in bounds.Online), so a cached run keyed on
	// the same endpoint only needs the accumulated delta seeds.
	//
	// Which cache serves is decided by the query's shape. A source matching
	// the forward cache relaxes forward warm — the Late-kind steady state.
	// Otherwise a standing target routes through the reverse cache (warm
	// when the target matches, full reverse rebuild when not): the miss
	// means the source moved, which is exactly the Early-kind shape whose
	// next states will keep the target fixed. A cold engine (neither cache
	// valid) or a speculative chain-vertex target relaxes forward full,
	// establishing the forward cache — so a Late-kind agent's very first
	// query never detours through the reverse side.
	var dist []int64
	var answer int64
	switch {
	case h.cacheValid && u == h.cacheSrc:
		h.querySeeds = append(h.querySeeds[:0], h.seeds...)
		for i := range h.undo {
			h.querySeeds = append(h.querySeeds, h.undo[i].parent, h.undo[i].aux)
		}
		dist, err = s.g.RelaxRestrictedFrom(h.scratch, h.querySeeds, h.admitted, &r)
		if err == nil {
			answer = dist[v]
		}
	case v < base && (h.cacheValid || h.revCacheValid):
		if h.revScratch == nil {
			h.revScratch = s.eng.leaseScratch()
		}
		if !h.revEnabled {
			h.enableReverse()
			r.ROverlay = h.roverlay
		}
		if h.revCacheValid && v == h.revCacheDst {
			h.revQuerySeeds = append(h.revQuerySeeds[:0], h.revSeeds...)
			for i := range h.undo {
				h.revQuerySeeds = append(h.revQuerySeeds, h.undo[i].parent)
			}
			var refresh []int
			if h.revRetired {
				refresh = s.eng.auxRefresh
				h.stats.BandRefreshes++
				s.eng.stats.bandRefreshes.Add(1)
			}
			dist, err = s.g.RelaxReverseRestrictedFrom(h.revScratch, h.revQuerySeeds, h.revAdmitted, refresh, &r)
			h.stats.RevHits++
			s.eng.stats.revHits.Add(1)
		} else {
			dist, err = s.g.LongestIntoRestricted(h.revScratch, v, &r)
			h.revCacheDst = v
			h.revCacheValid = true
			h.stats.RevRebuilds++
			s.eng.stats.revRebuilds.Add(1)
		}
		if h.revScratch.Relaxations != 0 {
			h.stats.RevRelaxations += h.revScratch.Relaxations
			s.eng.stats.revRelaxations.Add(h.revScratch.Relaxations)
			h.revScratch.Relaxations = 0
		}
		if err != nil {
			h.revCacheValid = false
			h.rollback(base)
			return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
		}
		// The reverse scratch holds this handle's into-target fixpoint over
		// every visible edge, so the reverse delta restarts empty.
		h.revSeeds = h.revSeeds[:0]
		h.revAdmitted = h.revAdmitted[:0]
		h.revRetired = false
		// The forward cache this branch answers around keeps collecting
		// seeds at every sync. Once they outnumber the vertices a warm
		// restart costs no less than a cold run, so drop it.
		if len(h.seeds) > base {
			h.cacheValid = false
			h.seeds = h.seeds[:0]
			h.admitted = h.admitted[:0]
		}
		answer = dist[u]
		w, reachable := int(answer), answer != graph.NegInf
		h.rollback(base)
		if !reachable {
			return 0, false, nil
		}
		return w, true, nil
	default:
		dist, err = s.g.LongestRestricted(h.scratch, u, &r)
		h.cacheSrc = u
		h.cacheValid = u < base
		if err == nil {
			answer = dist[v]
		}
	}
	if h.scratch.Relaxations != 0 {
		s.eng.stats.relaxations.Add(h.scratch.Relaxations)
		h.scratch.Relaxations = 0
	}
	if err != nil {
		h.cacheValid = false
		h.rollback(base)
		return 0, false, fmt.Errorf("bounds: GE(r,sigma) inconsistent: %w", err)
	}
	// Either way the scratch now holds this handle's fixpoint over every
	// visible edge, so the delta restarts empty.
	h.seeds = h.seeds[:0]
	h.admitted = h.admitted[:0]
	w, reachable := int(answer), answer != graph.NegInf
	h.rollback(base)
	if !reachable {
		return 0, false, nil
	}
	return w, true, nil
}

// Weight is the weight-only query of the batched plane. Handle never
// materializes witnesses, so it coincides with KnowledgeWeight; it exists so
// Extended, Online and Handle expose one weight-only contract.
func (h *Handle) Weight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error) {
	return h.KnowledgeWeight(theta1, theta2)
}

// Knows reports whether K_sigma(theta1 --x--> theta2) holds at the agent's
// current state, agreeing exactly with Extended.Knows on a fresh build.
func (h *Handle) Knows(theta1 run.GeneralNode, x int, theta2 run.GeneralNode) (bool, error) {
	kw, known, err := h.KnowledgeWeight(theta1, theta2)
	if err != nil {
		return false, err
	}
	return known && kw >= x, nil
}

// KnowsAt evaluates a threshold grid against one weight computation:
// holds[i] is set to Knows(theta1, xs[i], theta2) for the price of a single
// (possibly cache-warm) restricted SPFA. holds must have at least len(xs)
// entries. The grid answers count as batched queries on both the handle and
// the engine: len(xs) served, len(xs)-1 of them without their own
// relaxation.
func (h *Handle) KnowsAt(theta1 run.GeneralNode, xs []int, theta2 run.GeneralNode, holds []bool) (kw int, known bool, err error) {
	kw, known, err = h.KnowledgeWeight(theta1, theta2)
	if err != nil {
		return 0, false, err
	}
	for i, x := range xs {
		holds[i] = known && kw >= x
	}
	h.stats.BatchQueries += int64(len(xs))
	h.stats.BatchHits += int64(len(xs) - 1)
	h.shared.eng.stats.batchQueries.Add(int64(len(xs)))
	h.shared.eng.stats.batchHits.Add(int64(len(xs) - 1))
	return kw, known, nil
}
