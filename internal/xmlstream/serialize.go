package xmlstream

import (
	"fmt"
	"io"
	"strings"
)

// Serializer writes an event stream back to textual XML. It implements
// EventWriter and is used to materialize the authorized view delivered by the
// access-control evaluator on the terminal side.
//
// Each piece (indentation, tag, text, newline) reaches the writer as one
// Write call, assembled in a reused scratch buffer, so serializing does not
// allocate per event whatever the writer (io.WriteString would copy every
// string for a writer without WriteString).
type Serializer struct {
	w      io.Writer
	Indent bool
	depth  int
	err    error
	// openTag tracks whether the last event was an Open so that empty
	// elements can be collapsed visually when indenting; kept simple: we
	// always emit explicit open/close pairs for fidelity with the paper's
	// structural rule.
	bytesWritten int64
	buf          []byte
}

// NewSerializer returns a Serializer writing to w.
func NewSerializer(w io.Writer) *Serializer {
	return &Serializer{w: w}
}

// BytesWritten reports the number of bytes emitted so far.
func (s *Serializer) BytesWritten() int64 { return s.bytesWritten }

// WriteEvent implements EventWriter.
func (s *Serializer) WriteEvent(ev Event) error {
	if s.err != nil {
		return s.err
	}
	switch ev.Kind {
	case Open:
		s.indentation()
		s.tag("<", ev.Name)
		s.depth++
		if s.Indent {
			s.write("\n")
		}
	case Text:
		s.indentation()
		s.write(Escape(ev.Value))
		if s.Indent {
			s.write("\n")
		}
	case Close:
		s.depth--
		s.indentation()
		s.tag("</", ev.Name)
		if s.Indent {
			s.write("\n")
		}
	default:
		s.err = fmt.Errorf("xmlstream: unknown event kind %v", ev.Kind)
	}
	return s.err
}

func (s *Serializer) indentation() {
	if !s.Indent || s.depth == 0 {
		return
	}
	s.buf = s.buf[:0]
	for i := 0; i < s.depth; i++ {
		s.buf = append(s.buf, "  "...)
	}
	s.flush()
}

// tag writes open + name + ">".
func (s *Serializer) tag(open, name string) {
	s.buf = append(append(append(s.buf[:0], open...), name...), '>')
	s.flush()
}

func (s *Serializer) write(str string) {
	if str == "" {
		return
	}
	s.buf = append(s.buf[:0], str...)
	s.flush()
}

// flush writes the scratch buffer as one Write call.
func (s *Serializer) flush() {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(s.buf)
	s.bytesWritten += int64(n)
	if err != nil {
		s.err = err
	}
}

// SerializeTree renders a Node tree as textual XML.
func SerializeTree(root *Node, indent bool) string {
	var sb strings.Builder
	ser := NewSerializer(&sb)
	ser.Indent = indent
	for _, ev := range root.Events(1) {
		_ = ser.WriteEvent(ev)
	}
	return sb.String()
}

// TreeBuilder collects an event stream back into a Node tree. It is the
// EventWriter counterpart of TreeReader and is used by tests and by the
// result-reassembly logic to verify round trips.
type TreeBuilder struct {
	stack []*Node
	root  *Node
	err   error
}

// NewTreeBuilder returns an empty TreeBuilder.
func NewTreeBuilder() *TreeBuilder { return &TreeBuilder{} }

// WriteEvent implements EventWriter.
func (b *TreeBuilder) WriteEvent(ev Event) error {
	if b.err != nil {
		return b.err
	}
	switch ev.Kind {
	case Open:
		n := NewElement(ev.Name)
		if len(b.stack) > 0 {
			parent := b.stack[len(b.stack)-1]
			parent.Children = append(parent.Children, n)
		} else if b.root == nil {
			b.root = n
		} else {
			b.err = fmt.Errorf("%w: multiple root elements in event stream", ErrMalformed)
			return b.err
		}
		b.stack = append(b.stack, n)
	case Text:
		if len(b.stack) == 0 {
			b.err = fmt.Errorf("%w: text event outside any element", ErrMalformed)
			return b.err
		}
		parent := b.stack[len(b.stack)-1]
		parent.Children = append(parent.Children, NewText(ev.Value))
	case Close:
		if len(b.stack) == 0 {
			b.err = fmt.Errorf("%w: unbalanced close event", ErrMalformed)
			return b.err
		}
		b.stack = b.stack[:len(b.stack)-1]
	}
	return nil
}

// Root returns the built tree, or an error if the stream was unbalanced or
// empty.
func (b *TreeBuilder) Root() (*Node, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.root == nil {
		return nil, fmt.Errorf("%w: empty event stream", ErrMalformed)
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("%w: %d unclosed elements", ErrMalformed, len(b.stack))
	}
	return b.root, nil
}

// Stats summarizes the structural characteristics the paper reports in
// Table 2 for each dataset.
type Stats struct {
	// SerializedSize is the size in bytes of the textual XML form.
	SerializedSize int64
	// TextSize is the total number of bytes of text content.
	TextSize int64
	// MaxDepth is the maximum element nesting depth.
	MaxDepth int
	// AvgDepth is the average depth of elements.
	AvgDepth float64
	// DistinctTags is the number of distinct element names.
	DistinctTags int
	// TextNodes is the number of text nodes.
	TextNodes int
	// Elements is the number of element nodes.
	Elements int
}

// ComputeStats walks a document tree and computes its Table 2 statistics.
func ComputeStats(root *Node) Stats {
	var st Stats
	st.SerializedSize = int64(len(SerializeTree(root, false)))
	st.TextSize = int64(root.TextLength())
	st.MaxDepth = root.MaxDepth()
	st.DistinctTags = len(root.DistinctTags())
	st.TextNodes = root.CountTextNodes()
	st.Elements = root.CountElements()
	var depthSum, count int64
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.Kind == ElementNode {
			depthSum += int64(depth)
			count++
		}
		for _, c := range n.Children {
			if c.Kind == ElementNode {
				walk(c, depth+1)
			}
		}
	}
	walk(root, 1)
	if count > 0 {
		st.AvgDepth = float64(depthSum) / float64(count)
	}
	return st
}
