package secure

import (
	"fmt"
	"testing"
)

// TestReaderReadAtVerifiedDoesNotAllocate guards the steady-state read
// path: once every chunk is verified and the reader's scratch buffers are
// sized, ReadAt allocates nothing, whether the blocks come from the block
// cache or are decrypted again.
func TestReaderReadAtVerifiedDoesNotAllocate(t *testing.T) {
	const size = 20000
	for _, scheme := range []Scheme{SchemeECB, SchemeECBMHT, SchemeCBCSHA, SchemeCBCSHAC} {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			prot, err := Protect(samplePlaintext(size), testKey(), ProtectOptions{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(prot, testKey())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for off := 0; off+len(buf) <= size; off += len(buf) {
				if _, err := r.ReadAt(buf, int64(off)); err != nil {
					t.Fatal(err)
				}
			}
			// Strided offsets revisit both cached and evicted blocks.
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				off := int64(i*977) % (size - 64)
				i++
				if _, err := r.ReadAt(buf[:37], off); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("ReadAt over verified blocks allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
