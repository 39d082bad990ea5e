// Package zigzag implements the theory of "On Using Time Without Clocks via
// Zigzag Causality" (Dan, Manohar, Moses — PODC 2017): coordination in the
// bounded communication model (bcm), where processes have no clocks or
// timers, yet every channel carries known lower and upper bounds on message
// transmission time.
//
// # The model
//
// A Network is a directed graph of processes with per-channel bounds
// 1 <= L <= U. Processes are event-driven and follow a flooding
// full-information protocol (FFIP): whenever a process receives anything it
// immediately sends its entire history to every neighbour. The environment
// (a Policy) chooses each message's latency within [L, U] and must deliver
// by U. Simulate produces a Run: the recorded timelines, deliveries and
// external inputs.
//
// # Zigzag causality
//
// A two-legged Fork is a pair of message chains out of one node; a Zigzag
// chains forks so that each fork's head precedes the next fork's tail on a
// shared timeline. Zigzag patterns are exactly the communication structures
// that guarantee timed precedence between events (Theorems 1 and 2): the
// pattern's weight — lower bounds up the head legs, minus upper bounds down
// the tail legs, plus one per strict junction — bounds how much later the
// head occurs than the tail.
//
// The package computes the tightest supported bound between any two nodes as
// a longest path in the basic bounds graph (BasicGraph), extracts the
// witnessing zigzag (Lemma 5), and certifies tightness by synthesizing the
// slow run of Lemma 8 in which the bound is achieved with equality.
//
// # Knowledge and coordination
//
// What a single process can *know* about timing from its own observations is
// captured by the extended bounds graph (ExtendedGraph) over its causal
// past, with auxiliary horizon vertices standing for the earliest unseen
// events on each timeline. K_sigma(theta1 --x--> theta2) holds exactly when
// a constraint path of weight >= x exists — equivalently (Theorem 4), when a
// sigma-visible zigzag of that weight exists; KnowledgeWeight computes the
// strongest known bound and the witness pattern, and the fast run of
// Definition 24 certifies its tightness.
//
// On top sit the timed coordination tasks of Definition 1 — Late<a --x--> b>
// and Early<b --x--> a> — with the knowledge-optimal Protocol 2 for the
// acting process and an asynchronous (happened-before only) baseline for
// comparison. Early coordination is impossible asynchronously; in the bcm it
// is routine.
//
// # Scenarios and sweeps
//
// The canonical instances — the paper's figures, the trains, takeoff and
// circuits domains, and a seeded family of random topologies — live in
// internal/scenario and are enumerated by its Registry (the multi-agent
// coordination family behind a -coord-m size knob). internal/sweep runs
// scenario × policy × seed grids of simulations across a GOMAXPROCS worker
// pool and aggregates run shapes and coordination outcomes deterministically
// (results are independent of the worker count); `zigzag-sim -sweep` is the
// CLI front end, with -format table|csv|json for feeding figure scripts and
// -live for a second grid dimension of live multi-agent cells, every cell of
// one topology sharing a single per-network knowledge engine.
//
// The hot paths are dense and allocation-light: networks index their
// channels by integer ChanID with flat arc tables and CSR-style adjacency,
// the simulator's and the live engine's event schedules and the run indexes
// are horizon-indexed slices rather than maps, and the bounds graphs are
// built over exact degree counts with no per-edge metadata — all guarded by
// allocation-budget tests in internal/sim, internal/bounds and
// internal/live. Online agents keep an incremental knowledge engine
// (bounds.Online) that extends a standing extended bounds graph with each
// state's delta — the nodes that entered the view and their inboxes — and
// re-relaxes longest paths from only the new edges, answering exactly as a
// fresh per-state build would at a small fraction of the cost. Knowledge
// state is stratified by lifetime into a three-tier hierarchy:
// bounds.NetworkEngine owns the network-derived structure (aux band
// prototype, presizing hints, scratch pool) shared by every run of a
// topology, bounds.Shared is the per-run standing graph stamped out of it,
// and bounds.Handle carries one agent's frontier over that graph.
//
// The implementation details live in internal packages; this package
// re-exports the stable API. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-artifact reproductions.
package zigzag
