package xmlac

import (
	"errors"
	"io"
	"runtime"
	"testing"

	"xmlac/internal/dataset"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
)

func protectFolders(t testing.TB, key Key, folders int, seed uint64) *Protected {
	t.Helper()
	doc, err := ParseDocumentString(xmlstream.SerializeTree(dataset.HospitalFolders(folders, seed), false))
	if err != nil {
		t.Fatal(err)
	}
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	return prot
}

// scanEvents decodes a whole protected document through the given reader
// and decoder (re-armed with Reset, as the pooled pipeline does) and keeps
// every event.
func scanEvents(t *testing.T, rd *secure.Reader, dec *skipindex.Decoder, prot *Protected, key Key) []xmlstream.Event {
	t.Helper()
	if err := rd.Reset(prot.snapshot(), key); err != nil {
		t.Fatal(err)
	}
	if err := dec.Reset(rd); err != nil {
		t.Fatal(err)
	}
	var kept []xmlstream.Event
	for {
		ev, err := dec.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			return kept
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, ev)
	}
}

// TestPooledScanEventsDoNotAlias: the decoder and secure reader reuse their
// buffers across elements, reads and documents, but the events they return
// must not alias those buffers — multicast feeds, parallel captures and
// pending nodes keep Name and Value strings long after the scan moved on.
// Events kept from a first document are compared, after a second document
// went through the same reader and decoder, with a fresh decode.
func TestPooledScanEventsDoNotAlias(t *testing.T) {
	key := DeriveKey("aliasing")
	first, second := protectFolders(t, key, 40, 3), protectFolders(t, key, 40, 9)
	var rd secure.Reader
	var dec skipindex.Decoder
	kept := scanEvents(t, &rd, &dec, first, key)
	scanEvents(t, &rd, &dec, second, key)
	scanEvents(t, &rd, &dec, first, key)

	plain, err := secure.Decrypt(first.snapshot(), key)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := skipindex.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Events(1)
	if len(kept) != len(want) {
		t.Fatalf("pooled scan kept %d events, fresh decode has %d", len(kept), len(want))
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("event %d changed after the buffers were reused: kept %v, fresh decode %v", i, kept[i], want[i])
		}
	}
}

// streamingViewBytesBound caps the bytes one warm doctor streaming view
// allocates on HospitalFolders(300, 7). Measured on go1.24/amd64: 1.23 MB
// per view, most of it the text strings each text event must own, the
// terminal-side fragment hashes and the predicate instances; before the
// decoder, reader and evaluator reused their memory the same view allocated
// 44.1 MB. The bound leaves a 2.4x margin for toolchain and GC differences
// (a GC that empties the pools between views costs a rebuilt intern table
// and reader tables) and still fails on any return of a per-element or
// per-block allocation, each of which costs several megabytes here.
const streamingViewBytesBound = 3 << 20

// TestStreamingViewAllocBound guards the allocation budget of the SOE hot
// path end to end: pooled reader, decoder and evaluator, streaming
// serializer.
func TestStreamingViewAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	key := DeriveKey("alloc bound")
	prot := protectFolders(t, key, 300, 7)
	cp, err := DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	view := func() {
		if _, err := prot.StreamAuthorizedViewCompiled(key, cp, ViewOptions{}, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	view() // warm the pools
	const views = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < views; i++ {
		view()
	}
	runtime.ReadMemStats(&after)
	perView := (after.TotalAlloc - before.TotalAlloc) / views
	if perView > streamingViewBytesBound {
		t.Fatalf("doctor streaming view allocates %d bytes, bound %d", perView, streamingViewBytesBound)
	}
	t.Logf("doctor streaming view allocates %d bytes (bound %d)", perView, streamingViewBytesBound)
}
