// Package core implements the paper's primary contribution: the streaming
// evaluator of XML access-control rules (section 3), together with the
// conflict-resolution algorithm (Figure 4), the subtree-level decision and
// skipping logic (Figures 5 and 6), the dynamic optimizations of section
// 3.3, the pending-predicate management of section 5 and the query
// intersection of a pull context.
//
// The evaluator consumes the SAX-like event stream of internal/xmlstream
// (optionally produced by the Skip-index decoder of internal/skipindex,
// which additionally provides descendant-tag metadata and constant-time
// subtree skips) and produces the authorized view of the document for one
// access-control policy and, optionally, one query.
//
// Three execution strategies share that single evaluator:
//
//   - Solo: Evaluator.Run drives one compiled policy over one event stream,
//     delivering the view through Options.Sink in document order as nodes
//     settle (a nil sink materializes a tree). Policies compile once
//     (CompilePolicy) and evaluators Reset for reuse across evaluations.
//
//   - Shared scan: MultiEvaluator dispatches one streaming pass to N subject
//     evaluators through per-subject feeds. A subject's subtree skip becomes
//     virtual — its event delivery suspends until the matching Close while
//     the shared reader keeps moving — and the reader physically skips only
//     when every live subject skipped; per-subject Metrics stay identical to
//     the subject's solo scan (SkipDistance charges virtual skips the solo
//     byte count).
//
//   - Parallel scan: RunParallel evaluates the regions of one document
//     (planned at integrity-chunk/subtree boundaries by
//     skipindex.PlanRegions) on a bounded worker pool and stitches the
//     captured sink events back into exact document order, composing with
//     the shared-scan machinery so every subject rides every region. The
//     delivered view is byte-identical to the serial scan and per-subject
//     metrics are exactly equal; combinations the region protocol cannot
//     serve fail early with ErrNotParallelizable and callers fall back to
//     the serial strategy.
//
// Evaluations optionally report phase-level timing (Options.Trace) into
// internal/trace contexts; Metrics carries the paper's SOE cost counters for
// every strategy.
package core

import (
	"fmt"

	"xmlac/internal/accessrule"
)

// Decision is the tri-valued outcome of the conflict-resolution algorithm
// for a document node: permit, deny, or pending when the outcome depends on
// predicates that have not been resolved yet.
type Decision int

const (
	// Deny means the node must not be delivered.
	Deny Decision = iota
	// Permit means the node belongs to the authorized view.
	Permit
	// Pending means the outcome depends on pending predicates; the node must
	// be buffered until its delivery condition resolves.
	Pending
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Deny:
		return "deny"
	case Permit:
		return "permit"
	case Pending:
		return "pending"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// predState is the lifecycle of one predicate instance.
type predState int

const (
	// predUnknown: the anchor element is still open and no matching value
	// has been seen yet.
	predUnknown predState = iota
	// predSatisfied: a node matching the predicate path with a satisfying
	// value has been found inside the anchor element.
	predSatisfied
	// predFailed: the anchor element closed without the predicate being
	// satisfied; the corresponding rule instance never applies.
	predFailed
)

// predKey identifies one predicate instance: one predicate of one rule,
// anchored at one precise element occurrence (identified by its serial
// number in document order).
type predKey struct {
	rule   int
	pred   int
	anchor uint64
}

// predInstance is the mutable resolution state of one predicate instance.
// It corresponds to an entry of the paper's Predicate Set once satisfied;
// before that it materializes the "pending" information the Authorization
// Stack entries and buffered nodes wait on.
type predInstance struct {
	key   predKey
	state predState
	// depth of the anchor element, used to expire the instance when the
	// document leaves its scope.
	depth int
	// waiters are the buffered result nodes whose delivery condition
	// involves this instance; they are re-evaluated when the instance
	// resolves.
	waiters []*resultNode
	// deferrals counts, for query predicate instances, the elements whose
	// access decision is still pending and under which a satisfying value
	// was observed: the query result is computed over the authorized view,
	// so the satisfaction only counts if one of those elements turns out to
	// be access-permitted. While deferrals remain, the instance is not
	// failed even after its anchor closes.
	deferrals int
	// anchorClosed records that the anchor element's scope has ended.
	anchorClosed bool
}

func (pi *predInstance) resolved() bool { return pi.state != predUnknown }

// authEntry is one entry of the Authorization Stack: a rule instance whose
// navigational path final state has been reached at a given depth. Its
// status is derived from the resolution state of the predicate instances it
// depends on, so it evolves as predicates resolve (positive-pending →
// positive-active, etc.) without the entry being rewritten.
type authEntry struct {
	rule  int
	sign  accessrule.Sign
	query bool
	// depth at which the entry was pushed (the level of the Authorization
	// Stack it belongs to).
	depth int
	// preds are the predicate instances conditioning this rule instance, one
	// per predicate path of the rule's ARA (empty for predicate-free rules).
	preds []*predInstance
}

// entryStatus is the fourfold status of Figure 4 plus "void" for instances
// whose predicate definitively failed (the paper leaves such instances
// pending forever, which is equivalent for conflict resolution since a
// pending rule that never resolves does not apply; materializing the void
// state lets buffered nodes be released eagerly).
type entryStatus int

const (
	statusPositiveActive entryStatus = iota
	statusPositivePending
	statusNegativeActive
	statusNegativePending
	statusVoid
)

// status derives the current status of the entry from its predicates.
func (e *authEntry) status() entryStatus {
	pendingLeft := false
	for _, p := range e.preds {
		switch p.state {
		case predFailed:
			return statusVoid
		case predUnknown:
			pendingLeft = true
		}
	}
	switch {
	case pendingLeft && e.sign == accessrule.Deny:
		return statusNegativePending
	case pendingLeft:
		return statusPositivePending
	case e.sign == accessrule.Deny:
		return statusNegativeActive
	default:
		return statusPositiveActive
	}
}

// authLevel groups the entries pushed at one document depth, i.e. one level
// of the Authorization Stack.
type authLevel struct {
	depth   int
	entries []*authEntry
	// refs counts the pending snapshots holding the level and popped records
	// that the evaluator's stack let go of it: the level is recycled once
	// both say nothing references it.
	refs   int
	popped bool
}

// addEntry appends an entry to the level, reusing a recycled one (with its
// preds backing array) when the level has one.
func (l *authLevel) addEntry() *authEntry {
	n := len(l.entries)
	if n < cap(l.entries) {
		l.entries = l.entries[:n+1]
		if e := l.entries[n]; e != nil {
			preds := e.preds[:0]
			*e = authEntry{preds: preds}
			return e
		}
	} else {
		l.entries = append(l.entries, nil)
	}
	e := &authEntry{}
	l.entries[n] = e
	return e
}

// levelPool recycles Authorization Stack levels (with their entries) and
// the pending-node snapshots that reference them. A level goes back to the
// pool only when it is off the stack and no snapshot holds it, so a
// snapshot never observes a level being reused.
type levelPool struct {
	free  []*authLevel
	snaps [][]*authLevel
}

// get returns an empty level for the given depth.
func (p *levelPool) get(depth int) *authLevel {
	if n := len(p.free); n > 0 {
		l := p.free[n-1]
		p.free = p.free[:n-1]
		l.depth, l.entries, l.refs, l.popped = depth, l.entries[:0], 0, false
		return l
	}
	return &authLevel{depth: depth}
}

// pop records that the stack let go of l.
func (p *levelPool) pop(l *authLevel) {
	l.popped = true
	p.put(l)
}

func (p *levelPool) put(l *authLevel) {
	if l.popped && l.refs == 0 {
		p.free = append(p.free, l)
	}
}

// snapshot copies the stack levels for a pending node and pins them.
func (p *levelPool) snapshot(levels []*authLevel) []*authLevel {
	var snap []*authLevel
	if n := len(p.snaps); n > 0 {
		snap = p.snaps[n-1][:0]
		p.snaps = p.snaps[:n-1]
	}
	snap = append(snap, levels...)
	for _, l := range snap {
		l.refs++
	}
	return snap
}

// release unpins a snapshot's levels and recycles the snapshot. A nil pool
// (a builder driven without an evaluator) only drops the reference.
func (p *levelPool) release(snap []*authLevel) {
	if p == nil || snap == nil {
		return
	}
	for _, l := range snap {
		l.refs--
		p.put(l)
	}
	clear(snap)
	p.snaps = append(p.snaps, snap)
}

// decideLevels implements the conflict-resolution algorithm of Figure 4 over
// a snapshot of Authorization Stack levels (query entries excluded), from
// the most specific level down to the implicit closed-policy denial:
//
//  1. an empty stack denies (closed policy);
//  2. a negative-active rule at the current level denies
//     (Denial-Takes-Precedence);
//  3. a positive-active rule at the current level permits unless a
//     negative-pending rule at the same level may still contradict it;
//  4. otherwise the decision of the less specific levels applies unless a
//     pending rule of the opposite sign at the current level may overturn it
//     (Most-Specific-Object-Takes-Precedence);
//  5. otherwise the decision is pending.
//
// Void entries (instances whose predicate definitively failed) are ignored.
func decideLevels(levels []*authLevel) Decision {
	return decideLevelsFrom(levels, len(levels)-1)
}

func decideLevelsFrom(levels []*authLevel, i int) Decision {
	if i < 0 {
		return Deny
	}
	var posActive, posPending, negActive, negPending bool
	for _, e := range levels[i].entries {
		if e.query {
			continue
		}
		switch e.status() {
		case statusPositiveActive:
			posActive = true
		case statusPositivePending:
			posPending = true
		case statusNegativeActive:
			negActive = true
		case statusNegativePending:
			negPending = true
		}
	}
	if negActive {
		return Deny
	}
	if posActive && !negPending {
		return Permit
	}
	if !posActive && !posPending && !negPending {
		// Nothing relevant at this level (empty or void only): inherit.
		return decideLevelsFrom(levels, i-1)
	}
	lower := decideLevelsFrom(levels, i-1)
	if lower == Permit && !negPending && !negActive {
		return Permit
	}
	if lower == Deny && !posPending && !posActive {
		return Deny
	}
	return Pending
}

// queryStatus summarizes whether the query covers the current node.
type queryStatus int

const (
	// queryNone: no query was supplied; every node is in scope.
	queryNone queryStatus = iota
	// queryCovered: a query instance with all predicates satisfied covers
	// the node.
	queryCovered
	// queryPending: only pending query instances cover the node.
	queryPending
	// queryOutside: no query instance covers the node.
	queryOutside
)

// decideQuery derives the query coverage from the snapshot levels.
func decideQuery(levels []*authLevel, hasQuery bool) queryStatus {
	if !hasQuery {
		return queryNone
	}
	st := queryOutside
	for _, lvl := range levels {
		for _, e := range lvl.entries {
			if !e.query {
				continue
			}
			switch e.status() {
			case statusPositiveActive:
				return queryCovered
			case statusPositivePending:
				st = queryPending
			}
		}
	}
	return st
}

// combine merges the access-control decision and the query coverage into
// the delivery decision for a node (section 3.2: "the delivery condition for
// the current node becomes twofold: the delivery decision must be true and
// the query must be interested in this node").
func combine(ac Decision, qs queryStatus) Decision {
	switch {
	case ac == Deny:
		return Deny
	case qs == queryOutside:
		return Deny
	case ac == Permit && (qs == queryCovered || qs == queryNone):
		return Permit
	default:
		return Pending
	}
}
