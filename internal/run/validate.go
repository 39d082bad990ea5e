package run

import (
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// Validate checks that the recording is the prefix of a legal run of the
// FFIP in the bounded context:
//
//  1. node times start at 0 and strictly increase along each timeline, and
//     never exceed the horizon;
//  2. every non-initial node is created by at least one receipt (message or
//     external); initial nodes receive nothing;
//  3. every delivery travels an existing channel, is sent by a non-initial
//     node at that node's time, and its latency lies within [L, U];
//  4. the environment never misses a deadline: a message sent at time t on a
//     channel with upper bound U is delivered by t+U whenever t+U lies
//     within the horizon (FFIP sends on every outgoing channel at every
//     non-initial node);
//  5. at most one message per (node, channel);
//  6. externals land on non-initial nodes at the node's time.
//
// Build establishes most of these by construction; Validate re-checks them
// all independently so that synthesized runs (slow/fast constructions) are
// audited end to end.
func (r *Run) Validate() error {
	net := r.net
	// 1. Timeline monotonicity.
	for _, p := range net.Procs() {
		ts := r.times[p-1]
		if len(ts) == 0 || ts[0] != 0 {
			return fmt.Errorf("%w: process %d has no initial node at time 0", ErrNonMonotoneTimes, p)
		}
		for k := 1; k < len(ts); k++ {
			if ts[k] <= ts[k-1] {
				return fmt.Errorf("%w: process %d node %d at %d after node %d at %d",
					ErrNonMonotoneTimes, p, k, ts[k], k-1, ts[k-1])
			}
			if ts[k] > r.horizon {
				return fmt.Errorf("%w: node %s at %d", ErrOutsideHorizon, BasicNode{Proc: p, Index: k}, ts[k])
			}
		}
	}

	// 2. Node creation discipline.
	for _, p := range net.Procs() {
		for k := 0; k <= r.LastIndex(p); k++ {
			b := BasicNode{Proc: p, Index: k}
			sp := r.inbox[r.flat(b)]
			receipts := int(sp.hi-sp.lo) + len(r.extAt(r.flat(b)))
			if k == 0 && receipts != 0 {
				return fmt.Errorf("run: initial node %s has %d receipts", b, receipts)
			}
			if k > 0 && receipts == 0 {
				return fmt.Errorf("%w: %s", ErrOrphanNode, b)
			}
		}
	}

	// 3. Delivery legality. The channel is re-resolved from the endpoint
	// pair — independently of the recorded dense id, which must agree.
	for _, d := range r.deliveries {
		ch := d.Channel()
		cid := net.ChanIDOf(ch.From, ch.To)
		if cid == model.NoChan {
			return fmt.Errorf("%w: %s", ErrChannelMissing, d)
		}
		if d.Chan != cid {
			return fmt.Errorf("%w: %s carries channel id %d, want %d", ErrChannelMissing, d, d.Chan, cid)
		}
		bd := net.BoundsOf(cid)
		if d.From.IsInitial() {
			return fmt.Errorf("%w: %s", ErrInitialSend, d)
		}
		st, err := r.Time(d.From)
		if err != nil {
			return fmt.Errorf("run: delivery %s: %w", d, err)
		}
		if st != d.SendTime {
			return fmt.Errorf("%w: delivery %s sender node time %d", ErrTimeMismatch, d, st)
		}
		rt, err := r.Time(d.To)
		if err != nil {
			return fmt.Errorf("run: delivery %s: %w", d, err)
		}
		if rt != d.RecvTime {
			return fmt.Errorf("%w: delivery %s receiver node time %d", ErrTimeMismatch, d, rt)
		}
		if lat := d.RecvTime - d.SendTime; lat < bd.Lower || lat > bd.Upper {
			return fmt.Errorf("%w: %s latency %d outside %s", ErrBadDelivery, d, lat, bd)
		}
	}

	// 4+5. Forced-delivery discipline and single send per channel.
	for _, p := range net.Procs() {
		arcs := net.OutArcs(p)
		for k := 1; k <= r.LastIndex(p); k++ {
			from := BasicNode{Proc: p, Index: k}
			st := r.times[p-1][k]
			row := r.sent[r.sentOff[p-1]+int32(k*len(arcs)):]
			for s, a := range arcs {
				if delivered := row[s] != 0; !delivered && st+a.Bounds.Upper <= r.horizon {
					return fmt.Errorf("%w: message %s->%d sent at %d, deadline %d, horizon %d",
						ErrMissedDeadline, from, a.To, st, st+a.Bounds.Upper, r.horizon)
				}
			}
		}
	}

	// 6. Externals.
	for _, e := range r.externals {
		if e.To.IsInitial() {
			return fmt.Errorf("%w: %s", ErrExternalToInitial, e)
		}
		t, err := r.Time(e.To)
		if err != nil {
			return fmt.Errorf("run: external %s: %w", e, err)
		}
		if t != e.Time {
			return fmt.Errorf("%w: external %s node time %d", ErrTimeMismatch, e, t)
		}
	}
	return nil
}
