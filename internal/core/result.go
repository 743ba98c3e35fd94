package core

import (
	"errors"
	"fmt"

	"xmlac/internal/xmlstream"
)

// The result builder plays the role of the untrusted terminal in the target
// architecture: it buffers the pending parts of the document (the paper
// assumes "the terminal has enough memory to buffer the pending parts" or
// can read them back from the server), reassembles them at the right place
// when their delivery condition resolves (section 5), enforces the
// Structural rule (ancestors of authorized nodes are kept, optionally with
// dummied names) and delivers the authorized view.
//
// Delivery is streaming: the builder pushes open/text/close events into a
// ViewSink as soon as their fate is sealed, in document order. A node whose
// delivery condition is still pending blocks the emission cursor (later
// output would otherwise overtake it); everything before the first pending
// node flows out while the evaluation is still consuming the document, so
// time-to-first-byte and peak buffered memory track the evaluator's working
// set, not the view size.
//
// Memory discipline: the SOE-side state of the evaluator is bounded by the
// document depth and the number of active tokens; everything kept here is
// terminal-side memory. Emitted nodes are dropped from the skeleton as the
// cursor passes them, and subtrees whose decision is a definitive Deny are
// dropped as soon as their element closes, so the terminal retains only the
// still-pending fragments and the open path.
//
// Node recycling: a node leaves the skeleton once it is emitted and
// input-closed (or dropped). It then goes back on the builder's free list,
// unless a predicate instance still lists it as a waiter; in that case the
// last notification recycles it. Only waiter lists hold node pointers
// beyond the skeleton, so a recycled node is never observed again.

// nodeState tracks the delivery state of one buffered element or text node.
type nodeState int

const (
	// stateUndecided: delivery depends on pending predicates.
	stateUndecided nodeState = iota
	// stateIncluded: the node belongs to the authorized view (with its
	// text).
	stateIncluded
	// stateExcluded: the node itself is denied; it may still appear without
	// text as a structural ancestor of an included descendant.
	stateExcluded
)

// resultNode is one element or text node of the result skeleton.
type resultNode struct {
	isText bool
	name   string
	value  string
	state  nodeState

	parent   *resultNode
	children []*resultNode

	// next indexes the first child the emission cursor has not settled yet;
	// settled children are nilled out to release their subtree.
	next int
	// opened records that the sink received this element's opening tag
	// (directly, or structurally as a denied ancestor of a delivered node);
	// emittedName is the name it was opened under (dummied for non-included
	// elements when the dummy-name rendering is on), reused by the closing
	// tag.
	opened      bool
	emittedName string
	// inputClosed records that the document-side close event was seen, so
	// the cursor knows no further children can arrive.
	inputClosed bool
	// done marks a fully settled node (all output emitted or dropped).
	done bool

	// access is the access-control decision for the element independent of
	// the query (the query result is computed over the authorized view, so
	// query predicates may only observe values whose access decision is
	// Permit). It starts equal to the streaming decision and is refined when
	// pending predicates resolve.
	access Decision

	// deferredQuery lists query predicate instances whose satisfaction was
	// observed under this element while its access decision was still
	// pending; they are satisfied if and when the element becomes
	// access-permitted.
	deferredQuery []predKey

	// For undecided element nodes: the Authorization Stack snapshot
	// (including query entries) governing the node, re-evaluated when one of
	// the pending instances it waits on resolves.
	snapshot []*authLevel
	hasQuery bool

	// waits counts the predicate-instance waiter lists that hold the node;
	// released records that the builder is done with it. The node is
	// recycled only when both allow it.
	waits    int
	released bool
}

// ErrUnbalancedResult is returned when Finalize is called while elements are
// still open.
var ErrUnbalancedResult = errors.New("core: unbalanced result (document not fully processed)")

// resultBuilder accumulates the result skeleton during parsing and streams
// the settled prefix into its sink.
type resultBuilder struct {
	root    *resultNode
	current *resultNode
	// sink receives the delivered view; tree is non-nil when the builder
	// materializes (the sink is an internally owned TreeSink whose root is
	// returned by finalize).
	sink ViewSink
	tree *xmlstream.TreeSink
	err  error
	// dummyNames controls the Structural-rule rendering of denied ancestors.
	dummyNames bool
	// openStack mirrors the currently open elements.
	openStack []*resultNode
	// pendingCount tracks how many nodes are still undecided, to detect
	// internal accounting bugs at Finalize time.
	pendingCount int
	// metrics
	deliveredEarly int64 // nodes whose decision was known when first seen
	deliveredLate  int64 // nodes delivered after a pending resolution

	// levels recycles the snapshots of resolved nodes (nil when the builder
	// is driven without an evaluator); free holds recycled nodes.
	levels *levelPool
	free   []*resultNode
}

// newResultBuilder returns a materializing builder: the view is collected
// into a tree returned by finalize. It delivers through a TreeSink, so the
// materialized path is a thin adapter over the same streaming emission.
func newResultBuilder(dummyNames bool) *resultBuilder {
	b := &resultBuilder{}
	b.reset(nil, dummyNames, nil)
	return b
}

// reset re-arms the builder for a new run delivering into sink (a nil sink
// materializes into a fresh TreeSink), keeping its free list and stack.
func (b *resultBuilder) reset(sink ViewSink, dummyNames bool, levels *levelPool) {
	var tree *xmlstream.TreeSink
	if sink == nil {
		tree = xmlstream.NewTreeSink()
		sink = tree
	}
	clear(b.openStack)
	*b = resultBuilder{
		sink:       sink,
		tree:       tree,
		dummyNames: dummyNames,
		openStack:  b.openStack[:0],
		levels:     levels,
		free:       b.free,
	}
}

// newNode returns a zeroed node, recycled when one is free.
func (b *resultBuilder) newNode() *resultNode {
	if n := len(b.free); n > 0 {
		nd := b.free[n-1]
		b.free = b.free[:n-1]
		return nd
	}
	return &resultNode{}
}

// release hands a node that left the skeleton back to the free list, or
// marks it for recycling by the last waiter notification.
func (b *resultBuilder) release(n *resultNode) {
	n.released = true
	if n.waits > 0 {
		return
	}
	b.levels.release(n.snapshot)
	clear(n.children)
	*n = resultNode{children: n.children[:0], deferredQuery: n.deferredQuery[:0]}
	b.free = append(b.free, n)
}

// releaseTree releases a dropped subtree.
func (b *resultBuilder) releaseTree(n *resultNode) {
	for _, c := range n.children {
		if c != nil {
			b.releaseTree(c)
		}
	}
	b.release(n)
}

// openElement records an element with its (possibly pending) delivery
// decision d and access-control decision access, and returns the created
// node so the evaluator can register it as a waiter on unresolved predicate
// instances.
func (b *resultBuilder) openElement(name string, d, access Decision, snapshot []*authLevel, hasQuery bool) *resultNode {
	n := b.newNode()
	n.name, n.parent, n.access = name, b.current, access
	switch d {
	case Permit:
		n.state = stateIncluded
		b.deliveredEarly++
	case Deny:
		n.state = stateExcluded
	default:
		n.state = stateUndecided
		n.snapshot = snapshot
		n.hasQuery = hasQuery
		b.pendingCount++
	}
	if b.current == nil {
		b.root = n
	} else {
		b.current.children = append(b.current.children, n)
	}
	b.current = n
	b.openStack = append(b.openStack, n)
	return n
}

// text records a text node under the current element. Its delivery follows
// the enclosing element's decision, so it simply inherits the parent state
// (text of an undecided element is resolved together with it). Text of a
// definitively excluded element is never delivered — not even structurally —
// so it is dropped on the spot.
func (b *resultBuilder) text(value string) {
	if b.current == nil || b.current.state == stateExcluded {
		return
	}
	n := b.newNode()
	n.isText, n.value, n.parent, n.state = true, value, b.current, b.current.state
	b.current.children = append(b.current.children, n)
}

// closeElement closes the current element. Subtrees that are definitively
// excluded, un-emitted and without included or undecided descendants are
// dropped immediately to bound terminal memory, without waiting for the
// emission cursor to reach them.
func (b *resultBuilder) closeElement() {
	if len(b.openStack) == 0 {
		return
	}
	n := b.openStack[len(b.openStack)-1]
	b.openStack = b.openStack[:len(b.openStack)-1]
	n.inputClosed = true
	if len(b.openStack) > 0 {
		b.current = b.openStack[len(b.openStack)-1]
	} else {
		b.current = nil
	}
	if n.parent != nil && n.state == stateExcluded && !n.opened && !hasLiveDescendant(n) {
		// Drop: this subtree can never contribute output. The slot is nilled
		// (not spliced) so the parent's emission index stays valid; the
		// closing element is always the parent's most recent child.
		n.parent.children[len(n.parent.children)-1] = nil
		b.releaseTree(n)
	}
}

// hasLiveDescendant reports whether any descendant (or the node itself) is
// included or still undecided.
func hasLiveDescendant(n *resultNode) bool {
	if n.state == stateIncluded || n.state == stateUndecided {
		return true
	}
	for _, c := range n.children {
		if c != nil && hasLiveDescendant(c) {
			return true
		}
	}
	return false
}

// resolve re-evaluates an undecided element node after one of its pending
// predicate instances resolved. It returns true when the node reached a
// definitive state.
func (b *resultBuilder) resolve(n *resultNode, d Decision) bool {
	if n.state != stateUndecided {
		return true
	}
	switch d {
	case Permit:
		n.state = stateIncluded
		b.deliveredLate++
	case Deny:
		n.state = stateExcluded
	default:
		return false
	}
	b.pendingCount--
	// Text children inherited the undecided state; align them.
	for _, c := range n.children {
		if c != nil && c.isText && c.state == stateUndecided {
			c.state = n.state
		}
	}
	b.levels.release(n.snapshot)
	n.snapshot = nil
	return true
}

// flush advances the emission cursor: every node whose fate is sealed and
// whose document-order predecessors have all been emitted or dropped is
// pushed into the sink and released from the skeleton. The evaluator calls
// it after each processed event; a sink error is sticky and aborts the run.
func (b *resultBuilder) flush() error {
	if b.err != nil {
		return b.err
	}
	if b.root == nil {
		return nil
	}
	b.settle(b.root)
	return b.err
}

// settle tries to emit the remaining output of n. It returns true when the
// node is fully done (everything emitted or dropped, including the closing
// tag); false when it is blocked on a pending decision, on children still
// being parsed, or on a sink error.
func (b *resultBuilder) settle(n *resultNode) bool {
	if n.done {
		return true
	}
	if b.err != nil {
		return false
	}
	if n.isText {
		switch n.state {
		case stateIncluded:
			b.emitText(n.value)
			n.done = b.err == nil
			return n.done
		case stateExcluded:
			n.done = true
			return true
		default:
			return false
		}
	}
	if n.state == stateUndecided {
		return false
	}
	if n.state == stateIncluded && !n.opened {
		b.emitOpenPath(n)
		if b.err != nil {
			return false
		}
	}
	for n.next < len(n.children) {
		c := n.children[n.next]
		if c == nil {
			n.next++
			continue
		}
		if c.isText && n.state != stateIncluded {
			// Text of a non-included element is never delivered, even when
			// the element appears structurally.
			if c.state == stateUndecided {
				return false
			}
			n.children[n.next] = nil
			n.next++
			b.release(c)
			continue
		}
		if !b.settle(c) {
			return false
		}
		n.children[n.next] = nil
		n.next++
		b.release(c)
	}
	if n.next > 0 && n.next == len(n.children) {
		// Every child so far is settled: recycle the slice so a long-open
		// element (a wide root) does not accumulate one nil slot per child
		// ever seen. New children append from index 0 again.
		n.children = n.children[:0]
		n.next = 0
	}
	if !n.inputClosed {
		return false
	}
	if n.opened {
		b.emitClose(n.emittedName)
		if b.err != nil {
			return false
		}
	}
	// Never opened: an excluded subtree with no included descendant, dropped
	// whole.
	n.done = true
	return true
}

// emitOpenPath emits the opening tags of every not-yet-opened ancestor of n
// (all of which are excluded structural ancestors — included ancestors were
// opened when the cursor passed them) and of n itself, applying the
// Structural rule's dummy-name rendering to non-included elements.
func (b *resultBuilder) emitOpenPath(n *resultNode) {
	if n == nil || n.opened || b.err != nil {
		return
	}
	b.emitOpenPath(n.parent)
	if b.err != nil {
		return
	}
	name := n.name
	if n.state != stateIncluded && b.dummyNames {
		name = "_"
	}
	if err := b.sink.OpenElement(name); err != nil {
		b.err = fmt.Errorf("core: delivering view: %w", err)
		return
	}
	n.opened = true
	n.emittedName = name
}

func (b *resultBuilder) emitText(value string) {
	if err := b.sink.Text(value); err != nil {
		b.err = fmt.Errorf("core: delivering view: %w", err)
	}
}

func (b *resultBuilder) emitClose(name string) {
	if err := b.sink.CloseElement(name); err != nil {
		b.err = fmt.Errorf("core: delivering view: %w", err)
	}
}

// finalize flushes the remaining skeleton and ends the sink delivery. Any
// node still undecided is treated as denied (its predicates never resolved
// before the end of the document, which means they are false). When the
// builder materializes, the collected view tree is returned; it is nil when
// the view is empty.
func (b *resultBuilder) finalize() (*xmlstream.Node, error) {
	if len(b.openStack) != 0 {
		return nil, ErrUnbalancedResult
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.root != nil {
		b.denyUnresolved(b.root)
		if !b.settle(b.root) && b.err == nil {
			b.err = errors.New("core: internal error: view emission stalled at end of document")
		}
		if b.err != nil {
			return nil, b.err
		}
	}
	if err := b.sink.End(); err != nil {
		b.err = fmt.Errorf("core: delivering view: %w", err)
		return nil, b.err
	}
	if b.tree != nil {
		return b.tree.Root(), nil
	}
	return nil, nil
}

// denyUnresolved seals the fate of every node still undecided at the end of
// the document: unresolved predicates are false, so the node is excluded.
func (b *resultBuilder) denyUnresolved(n *resultNode) {
	if n.state == stateUndecided {
		n.state = stateExcluded
		b.levels.release(n.snapshot)
		n.snapshot = nil
	}
	for i := n.next; i < len(n.children); i++ {
		c := n.children[i]
		if c == nil {
			continue
		}
		if c.isText {
			if c.state == stateUndecided {
				c.state = stateExcluded
			}
			continue
		}
		b.denyUnresolved(c)
	}
}
