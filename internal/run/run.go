package run

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/clockless/zigzag/internal/model"
)

// Delivery records one message delivery: the FFIP message sent at node From
// on the channel (From.Proc -> To.Proc) at SendTime, delivered at node To at
// RecvTime. In an FFIP run every non-initial node sends exactly one message
// per outgoing channel, so (From, To.Proc) identifies the message.
//
// Chan is the dense id of the channel travelled, resolved against the
// network by the constructors in this package (Builder, View); consumers on
// per-delivery hot paths use it for O(1) bounds lookups via
// (*model.Network).BoundsOf. Hand-rolled zero-valued literals leave it
// meaningless.
type Delivery struct {
	From     BasicNode
	To       BasicNode
	SendTime model.Time
	RecvTime model.Time
	Chan     model.ChanID
}

// Channel returns the channel the message travelled on.
func (d Delivery) Channel() model.Channel {
	return model.Channel{From: d.From.Proc, To: d.To.Proc}
}

// String renders the delivery as "p1#2@5 => p3#4@9".
func (d Delivery) String() string {
	return fmt.Sprintf("%s@%d => %s@%d", d.From, d.SendTime, d.To, d.RecvTime)
}

// External records the delivery of a spontaneous external message from the
// environment's set E to node To at time Time.
type External struct {
	To    BasicNode
	Time  model.Time
	Label string
}

// String renders the external as "ext(go)->p2#1@3".
func (e External) String() string {
	return fmt.Sprintf("ext(%s)->%s@%d", e.Label, e.To, e.Time)
}

// Pending describes an FFIP message that was sent but not delivered within
// the run's horizon (it is still in transit when the recording stops). Chan
// is the dense channel id, set by the constructors in this package.
type Pending struct {
	From     BasicNode
	To       model.ProcID
	SendTime model.Time
	Chan     model.ChanID
}

// Deadline returns the latest time the environment may deliver the message.
func (p Pending) Deadline(net *model.Network) model.Time {
	return p.SendTime + net.Upper(p.From.Proc, p.To)
}

// span is a half-open range [lo, hi) of indices into a Run's deliveries
// slice; the zero value is the empty span.
type span struct{ lo, hi int32 }

// Run is a finite recording of an execution of the FFIP in a bounded
// context: the first Horizon+1 global states of an infinite run. It is
// immutable once built and safe for concurrent reads.
type Run struct {
	net     *model.Network
	horizon model.Time

	// times[p-1][k] is the time of node (p, k); times[p-1][0] == 0.
	times [][]model.Time

	deliveries []Delivery
	externals  []External

	// nodeOff[p-1] is the flat-id offset of process p's nodes: node (p, k)
	// has flat id nodeOff[p-1]+k. nodeOff has n+1 entries; the last is the
	// total node count.
	nodeOff []int32

	// inbox[flat(node)] is the contiguous range of deliveries absorbed in
	// the node's creating batch (deliveries are in arrival order, grouped
	// by receive batch).
	inbox []span
	// extIdx[extOff[f]:extOff[f+1]] lists, in recorded order, the indices
	// into externals absorbed by the node of flat id f. Both are nil when
	// the run has no externals.
	extOff []int32
	extIdx []int32

	// sent is the dense table of FFIP messages over the network's CSR
	// out-arcs: sent[sentOff[p-1]+k*deg(p)+slot] is 1 + the index into
	// deliveries of the message p#k sent on its slot-th out-arc, and 0 if
	// that message is pending or p#k is initial. sentOff has n+1 entries.
	sentOff []int32
	sent    []int32

	pending []Pending

	// fingerprint is the content hash of the recording (see Fingerprint),
	// computed once, on first use.
	fpOnce      sync.Once
	fingerprint uint64

	// tl is the time-free timeline table ViewOf slices views from, built
	// once on first use (see timelines).
	tlOnce sync.Once
	tl     [][]batch
}

// flat returns the node's index into flat per-node tables; the caller must
// ensure the node appears in the run.
func (r *Run) flat(b BasicNode) int32 { return r.nodeOff[b.Proc-1] + int32(b.Index) }

// sentSlot returns the index into sent of the message node from sends on
// channel cid, which must be one of from.Proc's out-arcs; the caller must
// ensure the node appears in the run.
func (r *Run) sentSlot(from BasicNode, cid model.ChanID) int32 {
	arcs := r.net.OutArcs(from.Proc)
	return r.sentOff[from.Proc-1] + int32(from.Index*len(arcs)) + int32(cid-arcs[0].ID)
}

// extAt returns the indices into externals absorbed by the node of flat
// id f, in recorded order.
func (r *Run) extAt(f int32) []int32 {
	if r.extOff == nil {
		return nil
	}
	return r.extIdx[r.extOff[f]:r.extOff[f+1]]
}

// Errors reported by run construction and validation.
var (
	ErrNoNode            = errors.New("run: node does not appear in run")
	ErrUnresolvable      = errors.New("run: general node not resolvable within horizon")
	ErrBadDelivery       = errors.New("run: delivery violates channel bounds")
	ErrMissedDeadline    = errors.New("run: message not delivered by its upper bound")
	ErrInitialSend       = errors.New("run: initial nodes cannot send messages")
	ErrOrphanNode        = errors.New("run: non-initial node with no incoming deliveries")
	ErrDuplicateSend     = errors.New("run: multiple messages for one (node, channel)")
	ErrNonMonotoneTimes  = errors.New("run: node times not strictly increasing")
	ErrOutsideHorizon    = errors.New("run: event beyond horizon")
	ErrChannelMissing    = errors.New("run: delivery on a non-existent channel")
	ErrTimeMismatch      = errors.New("run: event time disagrees with node time")
	ErrExternalToInitial = errors.New("run: external delivered to an initial node")
)

// Net returns the network the run executes over.
func (r *Run) Net() *model.Network { return r.net }

// Horizon returns the last recorded time step.
func (r *Run) Horizon() model.Time { return r.horizon }

// NumNodes returns the total number of basic nodes appearing in the run,
// including the n initial nodes.
func (r *Run) NumNodes() int {
	total := 0
	for _, ts := range r.times {
		total += len(ts)
	}
	return total
}

// LastIndex returns the largest state index of process p in the run
// (0 if p only has its initial node).
func (r *Run) LastIndex(p model.ProcID) int { return len(r.times[p-1]) - 1 }

// Appears reports whether the basic node appears in the run.
func (r *Run) Appears(b BasicNode) bool {
	if !r.net.ValidProc(b.Proc) || b.Index < 0 {
		return false
	}
	return b.Index < len(r.times[b.Proc-1])
}

// Time returns time_r(sigma), the (minimal) time at which the node's local
// state holds.
func (r *Run) Time(b BasicNode) (model.Time, error) {
	if !r.Appears(b) {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, b)
	}
	return r.times[b.Proc-1][b.Index], nil
}

// MustTime is Time that panics if the node does not appear.
func (r *Run) MustTime(b BasicNode) model.Time {
	t, err := r.Time(b)
	if err != nil {
		panic(err)
	}
	return t
}

// NodeAt returns the node of process p whose state holds at time t: the
// last node with time <= t. The initial node covers every time before the
// first batch.
func (r *Run) NodeAt(p model.ProcID, t model.Time) BasicNode {
	ts := r.times[p-1]
	// Binary search for the last index with ts[idx] <= t.
	idx := sort.Search(len(ts), func(i int) bool { return ts[i] > t }) - 1
	if idx < 0 {
		idx = 0
	}
	return BasicNode{Proc: p, Index: idx}
}

// Deliveries returns all deliveries in arrival order: by (RecvTime,
// To.Proc, From.Proc, SendTime), so the deliveries into one node are
// contiguous. Callers must not mutate the returned slice.
func (r *Run) Deliveries() []Delivery { return r.deliveries }

// Externals returns all external inputs in recorded order. Callers must
// not mutate the returned slice.
func (r *Run) Externals() []External { return r.externals }

// PendingMessages returns the messages still in transit at the horizon,
// ordered by (SendTime, From.Proc, To). Callers must not mutate the
// returned slice.
func (r *Run) PendingMessages() []Pending { return r.pending }

// Inbox returns the deliveries absorbed by the batch that created node b.
func (r *Run) Inbox(b BasicNode) []Delivery {
	if !r.Appears(b) {
		return []Delivery{}
	}
	sp := r.inbox[r.flat(b)]
	ds := make([]Delivery, sp.hi-sp.lo)
	copy(ds, r.deliveries[sp.lo:sp.hi])
	return ds
}

// timelines returns the run's time-free timeline table: tl[p-1][k] is p#k's
// receive batch, its arrivals in arrival order and its distinct external
// labels in recorded order. Every view of the run slices it, so it is built
// once, on first use.
func (r *Run) timelines() [][]batch {
	r.tlOnce.Do(func() {
		ds := make([]Arrival, len(r.deliveries))
		for i, d := range r.deliveries {
			ds[i] = Arrival{From: d.From, Chan: d.Chan}
		}
		r.tl = make([][]batch, len(r.times))
		for i, ts := range r.times {
			seg := make([]batch, len(ts))
			for k := range seg {
				node := BasicNode{Proc: model.ProcID(i + 1), Index: k}
				sp := r.inbox[r.flat(node)]
				seg[k].in = ds[sp.lo:sp.hi:sp.hi]
				for _, idx := range r.extAt(r.flat(node)) {
					if l := r.externals[idx].Label; !slices.Contains(seg[k].ext, l) {
						seg[k].ext = append(seg[k].ext, l)
					}
				}
			}
			r.tl[i] = seg
		}
	})
	return r.tl
}

// ExternalsAt returns the external inputs absorbed by the batch that
// created node b.
func (r *Run) ExternalsAt(b BasicNode) []External {
	if !r.Appears(b) {
		return []External{}
	}
	idxs := r.extAt(r.flat(b))
	es := make([]External, len(idxs))
	for i, idx := range idxs {
		es[i] = r.externals[idx]
	}
	return es
}

// DeliveryFrom returns the delivery of the message sent at node from to
// process to, and false if that message is still pending (or from never
// sends, i.e. it is initial). It is also false if from does not appear in
// the run or the network has no channel from.Proc -> to.
func (r *Run) DeliveryFrom(from BasicNode, to model.ProcID) (Delivery, bool) {
	if !r.Appears(from) {
		return Delivery{}, false
	}
	cid := r.net.ChanIDOf(from.Proc, to)
	if cid == model.NoChan {
		return Delivery{}, false
	}
	if e := r.sent[r.sentSlot(from, cid)]; e != 0 {
		return r.deliveries[e-1], true
	}
	return Delivery{}, false
}

// Resolve computes basic(theta, r) per Definition 4: the basic node reached
// by following theta's message chain. It fails with ErrUnresolvable if a
// link of the chain is still pending at the horizon, and with ErrNoNode if
// the base does not appear.
func (r *Run) Resolve(theta GeneralNode) (BasicNode, error) {
	if err := theta.Valid(r.net); err != nil {
		return BasicNode{}, err
	}
	if !r.Appears(theta.Base) {
		return BasicNode{}, fmt.Errorf("%w: base %s", ErrNoNode, theta.Base)
	}
	cur := theta.Base
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return BasicNode{}, fmt.Errorf("%w: chain of %s leaves initial node %s",
				ErrUnresolvable, theta, cur)
		}
		d, ok := r.DeliveryFrom(cur, next)
		if !ok {
			return BasicNode{}, fmt.Errorf("%w: %s stuck at %s->%d", ErrUnresolvable, theta, cur, next)
		}
		cur = d.To
	}
	return cur, nil
}

// TimeOf returns time_r(theta) = time_r(basic(theta, r)).
func (r *Run) TimeOf(theta GeneralNode) (model.Time, error) {
	b, err := r.Resolve(theta)
	if err != nil {
		return 0, err
	}
	return r.Time(b)
}

// MustTimeOf is TimeOf that panics on error.
func (r *Run) MustTimeOf(theta GeneralNode) model.Time {
	t, err := r.TimeOf(theta)
	if err != nil {
		panic(err)
	}
	return t
}

// Precedes reports whether (R, r) |= theta1 --x--> theta2: both nodes are
// resolvable and time(theta1) + x <= time(theta2).
func (r *Run) Precedes(theta1 GeneralNode, x int, theta2 GeneralNode) (bool, error) {
	t1, err := r.TimeOf(theta1)
	if err != nil {
		return false, err
	}
	t2, err := r.TimeOf(theta2)
	if err != nil {
		return false, err
	}
	return t1+x <= t2, nil
}
