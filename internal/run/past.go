package run

import "github.com/clockless/zigzag/internal/model"

// PastSet is past(r, sigma): the set of basic nodes sigma' with
// sigma' happens-before sigma (Definition 2), including sigma itself. Under
// an FFIP the set is exactly the information content of sigma's local state.
type PastSet struct {
	origin BasicNode
	// members[p-1] is the largest index k such that (p, k) is in the set,
	// or -1 if the process contributes no node. Locality makes the past a
	// per-process prefix of the timeline, so one integer per process
	// represents the whole set.
	members []int
}

// Origin returns the node whose past this is.
func (ps *PastSet) Origin() BasicNode { return ps.origin }

// Contains reports whether sigma' is in past(r, sigma).
func (ps *PastSet) Contains(b BasicNode) bool {
	if b.Proc < 1 || int(b.Proc) > len(ps.members) || b.Index < 0 {
		return false
	}
	return b.Index <= ps.members[b.Proc-1]
}

// Boundary returns the boundary node of process p (Definition 15): the last
// p-node in the past. ok is false if p contributes no node at all.
func (ps *PastSet) Boundary(p model.ProcID) (BasicNode, bool) {
	if p < 1 || int(p) > len(ps.members) {
		return BasicNode{}, false
	}
	k := ps.members[p-1]
	if k < 0 {
		return BasicNode{}, false
	}
	return BasicNode{Proc: p, Index: k}, true
}

// Size returns the number of nodes in the set.
func (ps *PastSet) Size() int {
	total := 0
	for _, k := range ps.members {
		total += k + 1
	}
	return total
}

// Nodes returns all members sorted by (process, index).
func (ps *PastSet) Nodes() []BasicNode {
	out := make([]BasicNode, 0, ps.Size())
	for i, k := range ps.members {
		for idx := 0; idx <= k; idx++ {
			out = append(out, BasicNode{Proc: model.ProcID(i + 1), Index: idx})
		}
	}
	return out
}

// Equal reports whether two past sets contain exactly the same nodes.
func (ps *PastSet) Equal(qs *PastSet) bool {
	if len(ps.members) != len(qs.members) {
		return false
	}
	for i := range ps.members {
		if ps.members[i] != qs.members[i] {
			return false
		}
	}
	return true
}

// Past computes past(r, sigma) by a reverse breadth-first search over
// locality and delivery edges.
func (r *Run) Past(sigma BasicNode) (*PastSet, error) {
	if !r.Appears(sigma) {
		return nil, ErrNoNode
	}
	ps := &PastSet{origin: sigma, members: make([]int, r.net.N())}
	for i := range ps.members {
		ps.members[i] = -1
	}
	// Work queue of per-process frontier indices: processing node (p, k)
	// marks the whole prefix 0..k of p and enqueues the senders of every
	// delivery into each prefix node not yet covered.
	type item struct{ b BasicNode }
	queue := []item{{b: sigma}}
	for len(queue) > 0 {
		cur := queue[0].b
		queue = queue[1:]
		already := ps.members[cur.Proc-1]
		if cur.Index <= already {
			continue
		}
		ps.members[cur.Proc-1] = cur.Index
		// Newly covered nodes are (cur.Proc, already+1 .. cur.Index); their
		// inboxes pull sender nodes into the past.
		for k := already + 1; k <= cur.Index; k++ {
			node := BasicNode{Proc: cur.Proc, Index: k}
			sp := r.inbox[r.flat(node)]
			for _, d := range r.deliveries[sp.lo:sp.hi] {
				from := d.From
				if from.Index > ps.members[from.Proc-1] {
					queue = append(queue, item{b: from})
				}
			}
		}
	}
	return ps, nil
}

// HappensBefore reports whether a happens-before b in r (a ≼ b), i.e.
// a ∈ past(r, b). Both nodes must appear in the run.
func (r *Run) HappensBefore(a, b BasicNode) (bool, error) {
	if !r.Appears(a) || !r.Appears(b) {
		return false, ErrNoNode
	}
	ps, err := r.Past(b)
	if err != nil {
		return false, err
	}
	return ps.Contains(a), nil
}

// Recognized reports whether theta = <sigma', p'> is sigma-recognized:
// sigma' is in past(r, sigma). Under an FFIP, sigma then knows that theta
// appears in the run (Section 2.2).
func (ps *PastSet) Recognized(theta GeneralNode) bool { return ps.Contains(theta.Base) }

// ChainPrefix resolves theta's chain against the run while it remains inside
// the past set: it returns the basic nodes of the resolved prefix (starting
// with theta.Base) and the number of hops resolved. If hops < theta.Path.Hops(),
// the (hops+1)-th chain node lies beyond the horizon of the past — either
// the delivery left the past or is unrecorded. Once a chain leaves the past
// it can never re-enter: a receipt inside the past would drag the sender in.
func (r *Run) ChainPrefix(ps *PastSet, theta GeneralNode) (prefix []BasicNode, hops int) {
	cur := theta.Base
	if !ps.Contains(cur) {
		return nil, 0
	}
	prefix = append(prefix, cur)
	for _, next := range theta.Path[1:] {
		if cur.IsInitial() {
			return prefix, hops
		}
		d, ok := r.DeliveryFrom(cur, next)
		if !ok || !ps.Contains(d.To) {
			return prefix, hops
		}
		cur = d.To
		prefix = append(prefix, cur)
		hops++
	}
	return prefix, hops
}
