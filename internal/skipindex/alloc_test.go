package skipindex

import (
	"errors"
	"testing"

	"xmlac/internal/xmlstream"
)

// textlessDoc builds a document whose elements carry no text, so decoding
// it allocates nothing once the decoder is warm (text events are the one
// allocation the decoder keeps: each value is a fresh string).
func textlessDoc(t *testing.T, leaf string) []byte {
	t.Helper()
	var folders []*xmlstream.Node
	for i := 0; i < 300; i++ {
		folders = append(folders, xmlstream.NewElement("a",
			xmlstream.NewElement(leaf),
			xmlstream.NewElement("c", xmlstream.NewElement(leaf)),
		))
	}
	enc, err := Encode(xmlstream.NewElement("r", folders...))
	if err != nil {
		t.Fatal(err)
	}
	return enc.Data
}

func drain(t *testing.T, d *Decoder) int {
	t.Helper()
	n := 0
	for {
		_, err := d.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestDecoderNextDoesNotAllocate guards the steady-state decode path: after
// one warm-up scan (intern table, open stack, event queue and scratch
// buffers sized), Reset keeps everything and Next on text-less elements
// allocates nothing.
func TestDecoderNextDoesNotAllocate(t *testing.T) {
	data := textlessDoc(t, "b")
	src := NewBytesSource(data)
	d, err := NewDecoder(src)
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, d)
	tab := d.tab
	if err := d.Reset(src); err != nil {
		t.Fatal(err)
	}
	if d.tab != tab {
		t.Fatal("Reset over the same dictionary rebuilt the intern table")
	}
	const runs = 1000
	if events <= runs {
		t.Fatalf("document has %d events, need more than %d", events, runs)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decoder.Next allocates %.1f times per text-less element event, want 0", allocs)
	}
}

// TestDecoderResetSwitchesDictionary: a Reset over a document with another
// tag dictionary must not reuse the previous intern table, and must decode
// exactly like a fresh decoder.
func TestDecoderResetSwitchesDictionary(t *testing.T) {
	first, second := textlessDoc(t, "b"), textlessDoc(t, "z")
	d, err := NewDecoder(NewBytesSource(first))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, d)
	tab := d.tab
	if err := d.Reset(NewBytesSource(second)); err != nil {
		t.Fatal(err)
	}
	if d.tab == tab {
		t.Fatal("Reset over a different dictionary kept the old intern table")
	}
	var got []xmlstream.Event
	for {
		ev, err := d.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	tree, err := Decode(second)
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Events(1)
	if len(got) != len(want) {
		t.Fatalf("reset decoder produced %d events, fresh decode %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: reset decoder %v, fresh decode %v", i, got[i], want[i])
		}
	}
}
