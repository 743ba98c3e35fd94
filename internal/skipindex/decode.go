package skipindex

import (
	"errors"
	"fmt"
	"io"

	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
)

// ByteSource abstracts random access to the encoded document. The plain
// in-memory implementation is bytesSource; internal/secure provides an
// implementation that fetches, decrypts and integrity-checks ciphertext on
// demand while counting the bytes that enter the SOE.
type ByteSource interface {
	io.ReaderAt
	// Size returns the total size of the encoded document.
	Size() int64
}

// bytesSource adapts a byte slice.
type bytesSource []byte

func (b bytesSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (b bytesSource) Size() int64 { return int64(len(b)) }

// NewBytesSource wraps an in-memory encoded document.
func NewBytesSource(data []byte) ByteSource { return bytesSource(data) }

// tagSet is one interned descendant-tag set: the tag ids (the parent
// context for decoding an element's children) and the tag-name set handed to
// the evaluator through CurrentDescendantTags. A set is immutable once
// interned, so the evaluator and region workers may hold it freely.
type tagSet struct {
	ids  []int
	tags map[string]struct{}
}

// internTable interns the descendant-tag sets of one tag dictionary. A
// document has few distinct sets (the tag alphabet is small), so every
// element after the first of its kind maps to an existing set instead of
// building a fresh id slice and name map. The table is tied to its
// dictionary and survives Reset as long as the dictionary does, so a pooled
// decoder re-reading the same document pays for each set once.
type internTable struct {
	dict []string
	// all is the virtual super-root's set: the full dictionary.
	all *tagSet
	// leaves holds the singleton set of each tag id, built on first use.
	leaves []*tagSet
	// sets holds the sets of internal elements keyed by their id bitmap.
	sets map[string]*tagSet
	// key is the scratch bitmap a lookup is built in.
	key []byte
}

func newInternTable(dict []string) *internTable {
	t := &internTable{
		dict:   dict,
		leaves: make([]*tagSet, len(dict)),
		sets:   map[string]*tagSet{},
		key:    make([]byte, (len(dict)+7)/8),
	}
	t.all = t.build(allIDs(len(dict)))
	return t
}

func (t *internTable) build(ids []int) *tagSet {
	s := &tagSet{ids: ids, tags: make(map[string]struct{}, len(ids))}
	for _, id := range ids {
		s.tags[t.dict[id]] = struct{}{}
	}
	return s
}

// leaf returns the set of a leaf element: its own tag only.
func (t *internTable) leaf(id int) *tagSet {
	if t.leaves[id] == nil {
		t.leaves[id] = t.build([]int{id})
	}
	return t.leaves[id]
}

// lookup returns the set whose id bitmap is in t.key, interning it on first
// use.
func (t *internTable) lookup() *tagSet {
	if s, ok := t.sets[string(t.key)]; ok {
		return s
	}
	var ids []int
	for id := range t.dict {
		if t.key[id/8]&(1<<(id%8)) != 0 {
			ids = append(ids, id)
		}
	}
	s := t.build(ids)
	t.sets[string(t.key)] = s
	return s
}

// openElement is the decoder's per-open-element state (the paper's
// SkipStack): everything needed to decode the children of the element and to
// know where its encoding ends. The stack holds it by value, so opening an
// element reuses a slot instead of allocating.
type openElement struct {
	name   string
	set    *tagSet // descendant tags (parent context for the children)
	size   uint64
	endOff int64
	depth  int
}

// Decoder streams a Skip-index encoded document as SAX-like events. It
// implements xmlstream.EventReader, xmlstream.Skipper (constant-time subtree
// skips driven by SubtreeSize) and the evaluator's MetaProvider interface
// (descendant-tag sets driving rule filtering).
//
// Once warmed up a Decoder decodes without allocating, apart from one
// string per text event: the open stack, the event queue, the meta and
// varint buffers are reused, and descendant-tag sets are interned. Reset
// re-arms it over another document, keeping all of that (and the intern
// table, when the dictionary is unchanged). Event names are the
// dictionary's strings and text values are fresh strings, so the events it
// returns stay valid after the decoder moves on or is reset.
type Decoder struct {
	src  ByteSource
	dict []string
	tab  *internTable

	off     int64
	stack   []openElement
	pending []xmlstream.Event // queued events, pending[head:] not yet delivered
	head    int

	// lastTags is the descendant-tag set of the last opened element, exposed
	// through CurrentDescendantTags.
	lastTags map[string]struct{}

	// meta, vbuf and text are the scratch buffers of element metadata,
	// varints and text bytes.
	meta []byte
	vbuf [10]byte
	text []byte

	// bytesRead counts the bytes actually fetched from the source (skipped
	// bytes excluded); the SOE cost model charges communication and
	// decryption on this amount.
	bytesRead   int64
	bytesTotal  int64
	skippedByte int64

	// trace, when non-nil, charges decode and skip time to the evaluation's
	// phase timers.
	trace *trace.Context

	// limit, when positive, is the end offset of a region scan: the decoder
	// reports end-of-document as soon as the position reaches it with only
	// the root element still open, instead of decoding the root's remaining
	// children. Zero means no limit (whole-document scan). Region decoders
	// are armed by NewRegionDecoder or ResetRegion.
	limit int64

	err error
}

// SetTrace attaches (or detaches, with nil) the tracing context that decode
// and skip time is charged to. The header parse in NewDecoder runs before
// any context can be attached and stays unattributed.
func (d *Decoder) SetTrace(t *trace.Context) { d.trace = t }

// NewDecoder parses the header and returns a Decoder positioned on the root
// element.
func NewDecoder(src ByteSource) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(src); err != nil {
		return nil, err
	}
	return d, nil
}

// rearm clears the per-scan state, keeping every buffer.
func (d *Decoder) rearm(src ByteSource, bytesTotal int64) {
	d.src = src
	d.bytesTotal = bytesTotal
	d.off = 0
	d.stack = d.stack[:0]
	clear(d.pending)
	d.pending = d.pending[:0]
	d.head = 0
	d.lastTags = nil
	d.bytesRead = 0
	d.skippedByte = 0
	d.trace = nil
	d.limit = 0
	d.err = nil
}

// Reset parses the header of src and positions the decoder on its root
// element, like NewDecoder, but reuses the decoder's buffers and, when the
// tag dictionary is the one it last decoded, its intern table. The trace
// context is detached.
func (d *Decoder) Reset(src ByteSource) error {
	d.rearm(src, src.Size())
	header := d.vbuf[:4]
	if err := d.readFull(header, 0); err != nil {
		// Keep the cause in the chain: a remote source's "document changed"
		// error must stay recognizable through errors.Is for the re-sync
		// retry above this pipeline.
		return fmt.Errorf("%w: short header: %w", ErrBadFormat, err)
	}
	for i := range magic {
		if header[i] != magic[i] {
			return fmt.Errorf("%w: bad magic", ErrBadFormat)
		}
	}
	off := int64(4)
	nt, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if nt == 0 || nt > 1<<20 {
		return fmt.Errorf("%w: implausible dictionary size %d", ErrBadFormat, nt)
	}
	// Compare the dictionary with the previous document's as it is read;
	// only a different one is materialized (and gets a new intern table).
	var prev, dict []string
	if d.tab != nil && len(d.tab.dict) == int(nt) {
		prev = d.tab.dict
	} else {
		dict = make([]string, nt)
	}
	for i := 0; i < int(nt); i++ {
		l, err := d.readUvarint(&off)
		if err != nil {
			return err
		}
		if l > 4096 {
			return fmt.Errorf("%w: implausible tag length %d", ErrBadFormat, l)
		}
		buf := d.textBuf(int(l))
		if err := d.readFull(buf, off); err != nil {
			return err
		}
		off += int64(l)
		if prev != nil {
			if string(buf) == prev[i] {
				continue
			}
			dict = make([]string, nt)
			copy(dict, prev[:i])
			prev = nil
		}
		dict[i] = string(buf)
	}
	if prev == nil {
		d.tab = newInternTable(dict)
	}
	d.dict = d.tab.dict
	bodyLen, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if int64(bodyLen) != d.bytesTotal-off {
		return fmt.Errorf("%w: body length %d does not match source size %d", ErrBadFormat, bodyLen, d.bytesTotal-off)
	}
	d.off = off
	// Virtual super-root context: full dictionary, body length.
	d.stack = append(d.stack, openElement{
		set:    d.tab.all,
		size:   bodyLen,
		endOff: d.bytesTotal,
	})
	return nil
}

// textBuf returns the text scratch buffer resized to n bytes.
func (d *Decoder) textBuf(n int) []byte {
	if cap(d.text) < n {
		d.text = make([]byte, n)
	}
	return d.text[:n]
}

// Dictionary returns the tag dictionary of the document.
func (d *Decoder) Dictionary() []string { return append([]string(nil), d.dict...) }

// BytesRead returns the number of encoded bytes fetched from the source so
// far (header included, skipped ranges excluded).
func (d *Decoder) BytesRead() int64 { return d.bytesRead }

// BytesSkipped returns the number of encoded bytes jumped over by
// SkipToClose calls.
func (d *Decoder) BytesSkipped() int64 { return d.skippedByte }

// CurrentDescendantTags implements the evaluator's MetaProvider: the tag set
// of the subtree rooted at the most recently opened element. The set is
// interned and must not be modified.
func (d *Decoder) CurrentDescendantTags() (map[string]struct{}, bool) {
	return d.lastTags, d.lastTags != nil
}

// Next implements xmlstream.EventReader.
func (d *Decoder) Next() (xmlstream.Event, error) {
	if d.err != nil {
		return xmlstream.Event{}, d.err
	}
	d.trace.Begin(trace.PhaseDecode)
	defer d.trace.End()
	for {
		if d.head < len(d.pending) {
			ev := d.pending[d.head]
			d.pending[d.head] = xmlstream.Event{} // drop the queue's reference to the text
			d.head++
			if d.head == len(d.pending) {
				d.pending = d.pending[:0]
				d.head = 0
			}
			return ev, nil
		}
		if err := d.advance(); err != nil {
			d.err = err
			return xmlstream.Event{}, err
		}
	}
}

// advance decodes the next construct and queues its events.
func (d *Decoder) advance() error {
	// A region decoder ends where its region does: once the position reaches
	// the limit with only the root open, the remaining children belong to
	// later regions. Checked before the close loop so the root element is
	// never popped — its Close event is owned by the caller that stitched
	// the regions together, not by any single region.
	if d.limit > 0 && len(d.stack) == 2 && d.off >= d.limit {
		return xmlstream.ErrEndOfDocument
	}
	// Close every element whose encoding is exhausted.
	for len(d.stack) > 1 {
		top := &d.stack[len(d.stack)-1]
		if d.off < top.endOff {
			break
		}
		if d.off > top.endOff {
			return fmt.Errorf("%w: element <%s> overran its subtree size", ErrBadFormat, top.name)
		}
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: top.name, Depth: top.depth})
		d.stack = d.stack[:len(d.stack)-1]
		return nil
	}
	if len(d.stack) == 1 {
		if d.off >= d.bytesTotal {
			return xmlstream.ErrEndOfDocument
		}
	}
	return d.decodeElement()
}

// decodeElement decodes one element header (and its direct text) and queues
// the Open and Text events.
func (d *Decoder) decodeElement() error {
	parent := d.stack[len(d.stack)-1].set
	parentSize := d.stack[len(d.stack)-1].size
	start := d.off

	metaWidthBits := 1 + int(bitsForCount(len(parent.ids))) + int(bitsFor(parentSize))
	// The TagArray is only present for internal elements, but its presence
	// is known from the first bit; read the maximum meta size then re-parse.
	maxMetaBytes := (metaWidthBits + len(parent.ids) + 7) / 8
	if cap(d.meta) < maxMetaBytes {
		d.meta = make([]byte, maxMetaBytes)
	}
	buf := d.meta[:maxMetaBytes]
	n, err := d.src.ReadAt(buf, start)
	if n < len(buf) && err != nil && err != io.EOF {
		return fmt.Errorf("%w: reading element meta: %w", ErrBadFormat, err)
	}
	r := bitReader{buf: buf[:n]}
	isLeaf, ok := r.readBool()
	if !ok {
		return fmt.Errorf("%w: truncated element meta", ErrBadFormat)
	}
	tagIdx, ok := r.readBits(bitsForCount(len(parent.ids)))
	if !ok {
		return fmt.Errorf("%w: truncated tag index", ErrBadFormat)
	}
	if int(tagIdx) >= len(parent.ids) {
		return fmt.Errorf("%w: tag index %d out of range", ErrBadFormat, tagIdx)
	}
	tagID := parent.ids[tagIdx]
	size, ok := r.readBits(bitsFor(parentSize))
	if !ok {
		return fmt.Errorf("%w: truncated subtree size", ErrBadFormat)
	}
	if size > parentSize {
		return fmt.Errorf("%w: subtree size %d exceeds parent size %d", ErrBadFormat, size, parentSize)
	}
	var set *tagSet
	if !isLeaf {
		key := d.tab.key
		clear(key)
		for _, id := range parent.ids {
			present, ok := r.readBool()
			if !ok {
				return fmt.Errorf("%w: truncated tag array", ErrBadFormat)
			}
			if present {
				key[id/8] |= 1 << (id % 8)
			}
		}
		set = d.tab.lookup()
	} else {
		set = d.tab.leaf(tagID)
	}
	r.align()
	metaBytes := r.bytesConsumed()
	d.bytesRead += int64(metaBytes)
	off := start + int64(metaBytes)

	textLen, err := d.readUvarint(&off)
	if err != nil {
		return err
	}
	if int64(textLen) > d.bytesTotal-off {
		return fmt.Errorf("%w: text length %d overruns document", ErrBadFormat, textLen)
	}
	var text string
	if textLen > 0 {
		tb := d.textBuf(int(textLen))
		if err := d.readFull(tb, off); err != nil {
			return err
		}
		off += int64(textLen)
		text = string(tb)
	}

	depth := len(d.stack) // virtual super-root occupies index 0
	name := d.dict[tagID]
	endOff := start + int64(size)
	if endOff > d.bytesTotal {
		return fmt.Errorf("%w: element <%s> extends past end of document", ErrBadFormat, name)
	}
	d.stack = append(d.stack, openElement{name: name, set: set, size: size, endOff: endOff, depth: depth})
	d.lastTags = set.tags
	d.off = off

	d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Open, Name: name, Depth: depth})
	if text != "" {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Text, Value: text, Depth: depth})
	}
	return nil
}

// SkipDistance reports how many encoded bytes a SkipToClose at the given
// depth would jump over, without performing the jump. A multicast scan
// (core.MultiEvaluator) uses it to charge each subject the bytes its solo
// evaluation would have skipped even when other subjects still need the
// subtree, so per-subject skip accounting matches the solo path exactly.
func (d *Decoder) SkipDistance(depth int) (int64, error) {
	for i := len(d.stack) - 1; i >= 1; i-- {
		if d.stack[i].depth == depth {
			if skipped := d.stack[i].endOff - d.off; skipped > 0 {
				return skipped, nil
			}
			return 0, nil
		}
	}
	return 0, fmt.Errorf("%w: no open element at depth %d", ErrBadFormat, depth)
}

// SkipToClose implements xmlstream.Skipper: it jumps to the end of the
// encoding of the element open at the given depth without reading the bytes
// in between. The Close event of that element is produced by the next call
// to Next.
func (d *Decoder) SkipToClose(depth int) (int64, error) {
	d.trace.Begin(trace.PhaseSkip)
	defer d.trace.End()
	// Find the element at that depth in the open stack.
	idx := -1
	for i := len(d.stack) - 1; i >= 1; i-- {
		if d.stack[i].depth == depth {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("%w: no open element at depth %d", ErrBadFormat, depth)
	}
	skipped := d.stack[idx].endOff - d.off
	if skipped < 0 {
		skipped = 0
	}
	d.off = d.stack[idx].endOff
	d.skippedByte += skipped
	// Events already decoded but not yet delivered all belong to the skipped
	// subtree: drop them. Elements below the target that the consumer has
	// already opened still need their Close events, in innermost-first
	// order, before the target's own Close.
	clear(d.pending)
	d.pending = d.pending[:0]
	d.head = 0
	for i := len(d.stack) - 1; i > idx; i-- {
		d.pending = append(d.pending, xmlstream.Event{Kind: xmlstream.Close, Name: d.stack[i].name, Depth: d.stack[i].depth})
	}
	d.stack = d.stack[:idx+1]
	return skipped, nil
}

// readFull reads len(p) bytes at offset off, counting them as fetched.
func (d *Decoder) readFull(p []byte, off int64) error {
	n, err := d.src.ReadAt(p, off)
	if n == len(p) {
		d.bytesRead += int64(n)
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: short read at offset %d: %w", ErrBadFormat, off, err)
}

// readUvarint reads a varint at *off, advancing it and counting the bytes.
func (d *Decoder) readUvarint(off *int64) (uint64, error) {
	n, _ := d.src.ReadAt(d.vbuf[:], *off)
	v, consumed := uvarint(d.vbuf[:n])
	if consumed == 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrBadFormat, *off)
	}
	*off += int64(consumed)
	d.bytesRead += int64(consumed)
	return v, nil
}

// Decode fully decodes an encoded document back into a tree (publisher-side
// utility and test helper; the SOE never materializes the document).
func Decode(data []byte) (*xmlstream.Node, error) {
	dec, err := NewDecoder(NewBytesSource(data))
	if err != nil {
		return nil, err
	}
	builder := xmlstream.NewTreeBuilder()
	for {
		ev, err := dec.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := builder.WriteEvent(ev); err != nil {
			return nil, err
		}
	}
	return builder.Root()
}
