package run

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/clockless/zigzag/internal/model"
)

// View is the subjective information content of a node's local state under
// an FFIP: the structure of its causal past — which nodes exist, which
// deliveries wired them together, which external inputs arrived — and
// nothing else. Crucially, a View carries no real-time information: every
// analysis built on it (in particular the extended bounds graph and hence
// all knowledge computation) is a function of structure alone, which is the
// paper's clockless point made executable.
//
// Views come from two places: ViewOf extracts one from a recorded run
// (offline analysis), and the live engine of internal/live accumulates one
// message by message inside each process (online decisions).
//
// A causal past is a prefix of every process's timeline, so a view is a
// frontier over per-process timelines that views share by reference:
// tl[p-1][k] is p#k's receive batch, only process p's own view appends to
// tl[p-1], and an entry never changes once appended. Merging a payload takes
// the longer prefix per process — O(n), nothing per delivery — and Snapshot
// freezes the n prefix headers.
type View struct {
	net    *model.Network
	origin BasicNode
	// tl[p-1] is the prefix of process p's timeline inside the view (empty if
	// p has not entered it): membership is len(tl[p-1])-1.
	tl [][]batch

	// The delivery index below is derived from tl and built lazily: a query
	// catches it up from the per-process watermarks, so views that only
	// relay payloads never build it. While the owner keeps querying — an
	// agent deciding at every state — Absorb keeps it current, at receipt
	// rather than inside the next decision. The owner's own deliveries are
	// indexed at once either way, which is how Absorb drops a re-delivered
	// message.
	//
	// marks[p-1] counts the entries of tl[p-1] already indexed; stale is set
	// when a merge moves some prefix past its mark; queried is set by a
	// query and cleared by the next Absorb.
	marks   []int
	stale   bool
	queried bool
	// recv is the dense DeliveryTo index over the network's CSR out-arcs:
	// recv[p-1][k*deg(p)+slot] is the receiver index + 1 of the message
	// node p#k sent on its slot-th out-arc (0 = not delivered inside the
	// view). Rows grow with the deliveries indexed.
	recv [][]int32
	// unmodeled records deliveries over channels the network does not
	// model. Every real run leaves it empty; it keeps such deliveries
	// visible so the knowledge engines can reject them with
	// model.ErrNoChannel.
	unmodeled []Delivery
	// indexed counts the deliveries in the index.
	indexed int
	// extEarliest indexes, per (process, label), the earliest non-initial
	// node that absorbed the label — the FindExternal answer. Protocol
	// agents call FindExternal at every state until the label appears, so
	// without the index every state pays a rescan of the whole timeline.
	// Lazily allocated: views without externals never pay for the map.
	extEarliest map[extKey]BasicNode
}

// batch is one entry of a timeline: the receive batch that created a node —
// its arrivals in receipt order and its distinct external labels. Initial
// nodes have empty batches.
type batch struct {
	in  []Arrival
	ext []string
}

// Arrival is one delivery as a view stores it in the receiving node's
// batch: the sending node and the channel travelled, with no times. It is
// less than half the size of a Delivery, and a view holds one per delivery
// in its causal past.
type Arrival struct {
	From BasicNode
	Chan model.ChanID
}

// extKey identifies an external-input lookup: which process absorbed which
// label.
type extKey struct {
	proc  model.ProcID
	label string
}

func newView(net *model.Network, origin BasicNode) *View {
	n := net.N()
	return &View{
		net:    net,
		origin: origin,
		tl:     make([][]batch, n),
		marks:  make([]int, n),
		recv:   make([][]int32, n),
	}
}

// ViewOf extracts the view of sigma from a recorded run. It slices the run's
// time-free timeline table, built on the first call, so every later ViewOf
// on the run costs O(n) until the view is queried.
func ViewOf(r *Run, sigma BasicNode) (*View, error) {
	ps, err := r.Past(sigma)
	if err != nil {
		return nil, err
	}
	tab := r.timelines()
	v := newView(r.net, sigma)
	for i, k := range ps.members {
		v.tl[i] = tab[i][: k+1 : k+1]
	}
	v.stale = true
	return v, nil
}

// NewLocalView returns the view of process p's initial state.
func NewLocalView(net *model.Network, p model.ProcID) *View {
	v := newView(net, BasicNode{Proc: p, Index: 0})
	v.tl[p-1] = []batch{{}}
	v.marks[p-1] = 1
	return v
}

// slot returns the position of the channel from -> to among from's deg
// out-arcs, or -1 if the network does not model it. ch is the channel id the
// caller already holds: when it names that channel, the slot is one
// subtraction instead of ChanIDOf's search.
func (v *View) slot(from, to model.ProcID, ch model.ChanID) (s, deg int) {
	arcs := v.net.OutArcs(from)
	if len(arcs) == 0 {
		return -1, 0
	}
	if s = int(ch - arcs[0].ID); ch != model.NoChan && s >= 0 && s < len(arcs) && arcs[s].To == to {
		return s, len(arcs)
	}
	if ch = v.net.ChanIDOf(from, to); ch == model.NoChan {
		return -1, len(arcs)
	}
	return int(ch - arcs[0].ID), len(arcs)
}

// record enters the delivery into the index and reports whether it is new:
// false if the message from sent to process to.Proc is already indexed.
func (v *View) record(from, to BasicNode, ch model.ChanID) bool {
	if s, deg := v.slot(from.Proc, to.Proc, ch); s < 0 {
		if _, ok := v.unmodeledTo(from, to.Proc); ok {
			return false
		}
		v.unmodeled = append(v.unmodeled, Delivery{From: from, To: to, Chan: ch})
	} else {
		i := from.Index*deg + s
		row := v.recv[from.Proc-1]
		if i >= len(row) {
			row = growRow(row, (from.Index+1)*deg)
			v.recv[from.Proc-1] = row
		} else if row[i] != 0 {
			return false
		}
		row[i] = int32(to.Index) + 1
	}
	v.indexed++
	return true
}

// growRow extends a dense index row to n zero-filled entries, doubling its
// capacity when it must move. Entries past a row's length are always zero:
// fresh arrays are zeroed and nothing writes there. (The append-of-make
// idiom does the same in one line, but under the race detector it
// allocates its temporary, which the allocation guards count.)
func growRow(row []int32, n int) []int32 {
	if n <= cap(row) {
		return row[:n]
	}
	grown := make([]int32, n, max(n, 2*cap(row)))
	copy(grown, row)
	return grown
}

// recordExternal enters one external label of node into the FindExternal
// index. Timelines are indexed in order, so the first node recorded per
// (process, label) is the earliest. Initial nodes absorb no externals.
func (v *View) recordExternal(node BasicNode, label string) {
	if node.Index < 1 {
		return
	}
	if v.extEarliest == nil {
		v.extEarliest = make(map[extKey]BasicNode)
	}
	key := extKey{proc: node.Proc, label: label}
	if _, ok := v.extEarliest[key]; !ok {
		v.extEarliest[key] = node
	}
}

// index is catchUp for queries: it also marks the view queried.
func (v *View) index() {
	v.queried = true
	v.catchUp()
}

// catchUp brings the delivery and external indexes up to the timelines.
func (v *View) catchUp() {
	if !v.stale {
		return
	}
	// Every sender of an indexed delivery is a member, so the rows can be
	// sized once, up front.
	for i, seg := range v.tl {
		if n := len(seg) * len(v.net.OutArcs(model.ProcID(i+1))); n > len(v.recv[i]) {
			v.recv[i] = growRow(v.recv[i], n)
		}
	}
	for i := range v.tl {
		v.indexFrom(model.ProcID(i + 1))
	}
	v.stale = false
}

// indexFrom indexes the entries of p's timeline past p's mark.
func (v *View) indexFrom(p model.ProcID) {
	seg := v.tl[p-1]
	for k := v.marks[p-1]; k < len(seg); k++ {
		for _, a := range seg[k].in {
			v.record(a.From, BasicNode{Proc: p, Index: k}, a.Chan)
		}
		for _, l := range seg[k].ext {
			v.recordExternal(BasicNode{Proc: p, Index: k}, l)
		}
	}
	v.marks[p-1] = len(seg)
}

// Net returns the network the view lives in.
func (v *View) Net() *model.Network { return v.net }

// Origin returns the node whose local state the view represents.
func (v *View) Origin() BasicNode { return v.origin }

// Contains reports membership of a basic node in the view.
func (v *View) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(v.tl) || b.Index < 0 {
		return false
	}
	return b.Index < len(v.tl[b.Proc-1])
}

// Boundary returns the last node of process p inside the view.
func (v *View) Boundary(p model.ProcID) (BasicNode, bool) {
	if p < 1 || int(p) > len(v.tl) || len(v.tl[p-1]) == 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: p, Index: len(v.tl[p-1]) - 1}, true
}

// PastSet converts the view's membership to a PastSet (for callers that
// verify witnesses against recorded runs).
func (v *View) PastSet() *PastSet {
	members := make([]int, len(v.tl))
	for i, seg := range v.tl {
		members[i] = len(seg) - 1
	}
	return &PastSet{origin: v.origin, members: members}
}

// Size returns the number of nodes in the view.
func (v *View) Size() int {
	total := 0
	for _, seg := range v.tl {
		total += len(seg)
	}
	return total
}

// Inbox returns the arrivals absorbed by the batch that created view node b,
// in receipt order, with the dense channel id resolved (nil if b is not in
// the view). The result is shared with every view that holds b: callers
// must not mutate it.
func (v *View) Inbox(b BasicNode) []Arrival {
	if !v.Contains(b) {
		return nil
	}
	return v.tl[b.Proc-1][b.Index].in
}

// DeliveryTo returns the node that received the message sent at from to
// process to, if that delivery is inside the view.
func (v *View) DeliveryTo(from BasicNode, to model.ProcID) (BasicNode, bool) {
	v.index()
	s, deg := v.slot(from.Proc, to, model.NoChan)
	if s < 0 || from.Index < 0 {
		return v.unmodeledTo(from, to)
	}
	row := v.recv[from.Proc-1]
	if from.Index >= len(row)/deg || row[from.Index*deg+s] == 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: to, Index: int(row[from.Index*deg+s]) - 1}, true
}

// unmodeledTo looks the message from sent to process to up in the side list
// of deliveries over unmodeled channels.
func (v *View) unmodeledTo(from BasicNode, to model.ProcID) (BasicNode, bool) {
	for _, d := range v.unmodeled {
		if d.From == from && d.To.Proc == to {
			return d.To, true
		}
	}
	return BasicNode{}, false
}

// Unmodeled returns the view's deliveries over channels the network does not
// model — empty for every real run. Callers must not mutate the result.
func (v *View) Unmodeled() []Delivery {
	v.index()
	return v.unmodeled
}

// Deliveries returns the view's deliveries as (from, to) node pairs in
// deterministic order (by sender node, then destination process), with the
// dense channel id resolved. Send and receive times are structural unknowns
// and left zero. The dense index already holds them in that order, so only
// deliveries over unmodeled channels need a sort.
func (v *View) Deliveries() []Delivery {
	v.index()
	out := make([]Delivery, 0, v.indexed)
	for i, row := range v.recv {
		arcs := v.net.OutArcs(model.ProcID(i + 1))
		for base := 0; base < len(row); base += len(arcs) {
			for s, a := range arcs {
				if k := row[base+s]; k != 0 {
					out = append(out, Delivery{
						From: BasicNode{Proc: a.From, Index: base / len(arcs)},
						To:   BasicNode{Proc: a.To, Index: int(k) - 1},
						Chan: a.ID,
					})
				}
			}
		}
	}
	if len(v.unmodeled) > 0 {
		out = append(out, v.unmodeled...)
		slices.SortFunc(out, func(a, b Delivery) int {
			if c := cmp.Compare(a.From.Proc, b.From.Proc); c != 0 {
				return c
			}
			if c := cmp.Compare(a.From.Index, b.From.Index); c != 0 {
				return c
			}
			return cmp.Compare(a.To.Proc, b.To.Proc)
		})
	}
	return out
}

// Leaving returns the (sender, destination) pairs of FFIP messages sent at
// view nodes and not received inside the view — the E” generators of the
// extended bounds graph, ordered by sender and destination (out-arcs are
// sorted by destination). Send times are structural unknowns and left zero.
func (v *View) Leaving() []Pending {
	v.index()
	var out []Pending
	for i, seg := range v.tl {
		arcs := v.net.OutArcs(model.ProcID(i + 1))
		row := v.recv[i]
		for idx := 1; idx < len(seg); idx++ {
			from := BasicNode{Proc: model.ProcID(i + 1), Index: idx}
			for s, a := range arcs {
				if j := idx*len(arcs) + s; j < len(row) && row[j] != 0 {
					continue
				}
				out = append(out, Pending{From: from, To: a.To, Chan: a.ID})
			}
		}
	}
	return out
}

// ResolvePrefix resolves theta's chain while it stays inside the view,
// mirroring (*Run).ChainPrefix: it returns the resolved prefix nodes and
// hop count.
func (v *View) ResolvePrefix(theta GeneralNode) (prefix []BasicNode, hops int) {
	cur := theta.Base
	if !v.Contains(cur) {
		return nil, 0
	}
	prefix = append(prefix, cur)
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return prefix, hops
		}
		d, ok := v.DeliveryTo(cur, next)
		if !ok {
			return prefix, hops
		}
		cur = d
		prefix = append(prefix, cur)
		hops++
	}
	return prefix, hops
}

// ExternalsAt returns the external labels absorbed at a view node, sorted.
func (v *View) ExternalsAt(b BasicNode) []string {
	if !v.Contains(b) {
		return nil
	}
	out := slices.Clone(v.tl[b.Proc-1][b.Index].ext)
	slices.Sort(out)
	return out
}

// FindExternal locates the earliest node of process p that absorbed an
// external input with the given label. The lookup is O(1) against the lazy
// index, not a rescan of p's timeline: online agents (live.Protocol2) call
// this at every new state until the label appears.
func (v *View) FindExternal(p model.ProcID, label string) (BasicNode, bool) {
	v.index()
	n, ok := v.extEarliest[extKey{proc: p, label: label}]
	return n, ok
}

// Snapshot is a view's content frozen at one instant: the payload of an
// outgoing FFIP message (the sender's history at send time). It holds the
// view's n timeline prefixes, sliced with cap = len: timelines only ever
// append past a prefix, so a Snapshot is immutable and safe to read from
// other goroutines while the owning process keeps absorbing. Taking one
// costs a copy of the n prefix headers, nothing proportional to the
// history.
type Snapshot struct {
	net    *model.Network
	origin BasicNode
	tl     [][]batch
}

// Snapshot freezes the view's current content.
func (v *View) Snapshot() *Snapshot {
	tl := make([][]batch, len(v.tl))
	for i, seg := range v.tl {
		tl[i] = seg[:len(seg):len(seg)]
	}
	return &Snapshot{net: v.net, origin: v.origin, tl: tl}
}

// Origin returns the node whose local state the snapshot captured.
func (s *Snapshot) Origin() BasicNode { return s.origin }

// Contains reports membership of a basic node in the snapshot.
func (s *Snapshot) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(s.tl) || b.Index < 0 {
		return false
	}
	return b.Index < len(s.tl[b.Proc-1])
}

// Receipt describes one incoming FFIP message for Absorb: the sender's node
// and the sender's frozen view at that node (the full-information payload).
type Receipt struct {
	From    BasicNode
	Payload *Snapshot
}

// Absorb advances the view by one receive batch: the owning process moves
// to its next local state, merges every sender's payload snapshot, appends
// the batch's deliveries and external inputs to its own timeline, and
// returns the new node. It implements the FFIP state transition on the
// receiving side. The whole batch is validated first, so a rejected batch
// leaves the view unchanged. A message delivered twice — within the batch
// or to an earlier node — keeps its first delivery.
func (v *View) Absorb(receipts []Receipt, externalLabels []string) (BasicNode, error) {
	p := v.origin.Proc
	next := BasicNode{Proc: p, Index: len(v.tl[p-1])}
	for i, rc := range receipts {
		if rc.Payload != nil {
			if len(rc.Payload.tl) != len(v.tl) {
				return BasicNode{}, fmt.Errorf("run: merging views over different networks")
			}
			if len(rc.Payload.tl[p-1]) > next.Index {
				return BasicNode{}, fmt.Errorf("run: payload of receipt from %s holds states of p%d beyond %s", rc.From, p, v.origin)
			}
		}
		if !v.covers(next, receipts[:i+1], rc.From) {
			return BasicNode{}, fmt.Errorf("run: receipt from %s not covered by its own payload", rc.From)
		}
	}
	for _, rc := range receipts {
		if rc.Payload != nil {
			v.merge(rc.Payload)
		}
	}
	v.indexFrom(p)
	in := make([]Arrival, 0, len(receipts))
	for _, rc := range receipts {
		ch := v.net.ChanIDOf(rc.From.Proc, p)
		if v.record(rc.From, next, ch) {
			in = append(in, Arrival{From: rc.From, Chan: ch})
		}
	}
	var ext []string
	for _, l := range externalLabels {
		if !slices.Contains(ext, l) {
			ext = append(ext, l)
			v.recordExternal(next, l)
		}
	}
	v.tl[p-1] = append(v.tl[p-1], batch{in: in, ext: ext})
	v.marks[p-1] = len(v.tl[p-1])
	v.origin = next
	if v.queried {
		v.queried = false
		v.catchUp()
	}
	return next, nil
}

// covers reports whether b lies in the union of the view advanced to next
// and the payloads of batch — the membership b would have once Absorb has
// merged those payloads.
func (v *View) covers(next BasicNode, batch []Receipt, b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(v.tl) || b.Index < 0 {
		return false
	}
	k := len(v.tl[b.Proc-1])
	if b.Proc == next.Proc {
		k = next.Index + 1
	}
	for _, rc := range batch {
		if rc.Payload != nil {
			k = max(k, len(rc.Payload.tl[b.Proc-1]))
		}
	}
	return b.Index < k
}

// merge unions a payload snapshot over the same network into this view by
// taking the longer prefix of each timeline. Every timeline has one writer,
// so two prefixes of one process agree where they overlap, and a view holds
// every delivery into each of its nodes: nothing is scanned per delivery.
func (v *View) merge(s *Snapshot) {
	for i, seg := range s.tl {
		if len(seg) > len(v.tl[i]) {
			v.tl[i] = seg
			v.stale = true
		}
	}
}

// Clone returns an independently growable copy. Timeline entries are
// immutable and shared; the copy's prefixes are capped so its appends never
// write into the original's arrays, and it rebuilds its own index on first
// use (message payloads use the far cheaper Snapshot instead).
func (v *View) Clone() *View {
	c := newView(v.net, v.origin)
	for i, seg := range v.tl {
		c.tl[i] = seg[:len(seg):len(seg)]
	}
	c.stale = true
	return c
}
