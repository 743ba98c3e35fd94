package secure

import (
	"bytes"
	"crypto/cipher"
	"crypto/sha1"
	"fmt"
	"io"

	"xmlac/internal/trace"
)

// Costs accounts for everything that crosses the SOE boundary or is computed
// inside it. The SOE cost model (internal/soe) converts these volumes into
// time using the bandwidth and throughput constants of Table 1.
type Costs struct {
	// BytesTransferred is the total number of bytes entering the SOE:
	// ciphertext, sibling hashes and encrypted digests.
	BytesTransferred int64
	// BytesDecrypted is the number of bytes decrypted inside the SOE
	// (requested blocks, whole chunks for CBC-SHA, encrypted digests).
	BytesDecrypted int64
	// BytesHashed is the number of bytes hashed inside the SOE for integrity
	// verification.
	BytesHashed int64
	// DigestsDecrypted counts decrypted chunk digests.
	DigestsDecrypted int64
	// ChunksVerified counts chunk-level verifications.
	ChunksVerified int64
	// FragmentsVerified counts fragment-level verifications (ECB-MHT).
	FragmentsVerified int64
}

// Add accumulates another cost record.
func (c *Costs) Add(o Costs) {
	c.BytesTransferred += o.BytesTransferred
	c.BytesDecrypted += o.BytesDecrypted
	c.BytesHashed += o.BytesHashed
	c.DigestsDecrypted += o.DigestsDecrypted
	c.ChunksVerified += o.ChunksVerified
	c.FragmentsVerified += o.FragmentsVerified
}

// Reader is the SOE-side secure reader: it exposes the protected document as
// a plaintext io.ReaderAt (the interface the Skip-index decoder consumes),
// fetching ciphertext from the untrusted terminal on demand through a
// ChunkSource, decrypting only what is needed and verifying integrity
// according to the protection scheme. With the in-memory *Protected source
// the terminal is simulated; with a remote source (internal/remote) every
// CiphertextRange call translates into network transfer, so the bytes the
// Skip index avoids are bytes that never cross the wire.
// It implements skipindex.ByteSource.
//
// Once its tables are warm, a Reader serves reads without allocating: the
// plaintext is assembled in a reader-owned buffer and copied out by ReadAt,
// cache entries are fixed-size arrays, and Merkle verification recombines
// over a reused leaf slice. Bytes returned by the ChunkSource are only read,
// never modified or retained beyond the documented snapshot contract.
type Reader struct {
	src   ChunkSource
	man   Manifest
	key   Key
	block cipher.Block
	// iv is the CBC initialization vector derived from key.
	iv [BlockSize]byte

	// verification state kept in the SOE: one entry per chunk already
	// verified (CBC schemes) or per chunk being verified fragment by
	// fragment (ECB-MHT, with the fragments already verified and the leaf
	// hashes of the chunk: the SOE keeps the leaves of the current chunk,
	// 8 x 20 bytes, well within its RAM budget, so sibling hashes are
	// transferred at most once per chunk), plus the decrypted chunk digests.
	verifiedChunks map[int]bool
	mhtChunks      map[int]*mhtChunk
	mhtFree        []*mhtChunk
	digestCache    map[int][]byte

	// blockCache holds the most recently decrypted plaintext blocks so that
	// the many small overlapping reads of the streaming decoder do not
	// transfer and decrypt the same block twice. The capacity is a few
	// hundred bytes, compatible with the SOE RAM budget; eviction is a cheap
	// clock over a fixed-size table.
	blockCache     map[int64][BlockSize]byte
	blockCacheKeys []int64
	blockCachePos  int

	// justFetched lists the ciphertext block ranges that the current ReadAt
	// call already pulled into the SOE for integrity verification, so the
	// decryption step of the same call does not charge their transfer a
	// second time (the SOE hashes and decrypts the incoming stream in one
	// pass).
	justFetched []blockRange

	// ctCache keeps the ciphertext byte ranges of the last few fragments
	// transferred for Merkle verification (ECB-MHT): subsequent reads inside
	// those ranges decrypt from the copy already inside the SOE instead of
	// transferring the bytes again. Keyed by fragment index; bounded by
	// ctCacheSize.
	ctCache     map[int64][2]int64
	ctCacheKeys []int64
	ctCachePos  int

	// Scratch owned by the reader: out assembles the plaintext of one read,
	// blk and prev hold one decrypted and one chaining block, and leaves is
	// the Merkle recombination level.
	out    []byte
	blk    [BlockSize]byte
	prev   [BlockSize]byte
	leaves [][DigestSize]byte

	costs Costs

	// trace, when non-nil, charges decrypt/verify/hash-fetch time to the
	// evaluation's phase timers. Cleared by Reset; set per evaluation.
	trace *trace.Context
}

// blockRange is the half-open range [from, to) of block indexes.
type blockRange struct{ from, to int64 }

// mhtChunk is the ECB-MHT state of one chunk: the fragments verified so far
// and the leaf hashes the SOE holds (have marks the valid ones).
type mhtChunk struct {
	verified []bool
	have     []bool
	leaves   [][DigestSize]byte
}

// grow sizes the chunk state for n fragments, keeping what it holds.
func (c *mhtChunk) grow(n int) {
	for len(c.verified) < n {
		c.verified = append(c.verified, false)
		c.have = append(c.have, false)
		c.leaves = append(c.leaves, [DigestSize]byte{})
	}
}

// chunkState returns the Merkle state of a chunk, taking a recycled one on
// first touch.
func (r *Reader) chunkState(chunk, numFrags int) *mhtChunk {
	c := r.mhtChunks[chunk]
	if c == nil {
		if n := len(r.mhtFree); n > 0 {
			c = r.mhtFree[n-1]
			r.mhtFree = r.mhtFree[:n-1]
		} else {
			c = &mhtChunk{}
		}
		r.mhtChunks[chunk] = c
	}
	c.grow(numFrags)
	return c
}

// fetchedInCall reports whether block b was already transferred by the
// current ReadAt call.
func (r *Reader) fetchedInCall(b int64) bool {
	for _, rg := range r.justFetched {
		if b >= rg.from && b < rg.to {
			return true
		}
	}
	return false
}

// ctCacheSize is the number of fragments of ciphertext the SOE retains
// (4 x 256 bytes = 1 KB of RAM).
const ctCacheSize = 4

func (r *Reader) ctCachePut(frag, from, to int64) {
	if r.ctCacheKeys == nil {
		r.ctCacheKeys = make([]int64, ctCacheSize)
		for i := range r.ctCacheKeys {
			r.ctCacheKeys[i] = -1
		}
	}
	if old := r.ctCacheKeys[r.ctCachePos]; old >= 0 {
		delete(r.ctCache, old)
	}
	r.ctCacheKeys[r.ctCachePos] = frag
	r.ctCachePos = (r.ctCachePos + 1) % ctCacheSize
	r.ctCache[frag] = [2]int64{from, to}
}

// inCtCache reports whether the ciphertext byte at the given offset is still
// held by the SOE from a previous fragment verification.
func (r *Reader) inCtCache(off int64) bool {
	if r.man.FragmentSize == 0 {
		return false
	}
	rng, ok := r.ctCache[off/int64(r.man.FragmentSize)]
	return ok && off >= rng[0] && off < rng[1]
}

// blockCacheSize is the number of 8-byte plaintext blocks the SOE keeps
// (512 bytes of RAM).
const blockCacheSize = 64

func (r *Reader) cachePut(block int64, plain []byte) {
	if r.blockCacheKeys == nil {
		r.blockCacheKeys = make([]int64, blockCacheSize)
		for i := range r.blockCacheKeys {
			r.blockCacheKeys[i] = -1
		}
	}
	if old := r.blockCacheKeys[r.blockCachePos]; old >= 0 {
		delete(r.blockCache, old)
	}
	r.blockCacheKeys[r.blockCachePos] = block
	r.blockCachePos = (r.blockCachePos + 1) % blockCacheSize
	r.blockCache[block] = [BlockSize]byte(plain)
}

// NewReader builds a secure reader over a chunk source (an in-memory
// *Protected document or a remote blob).
func NewReader(src ChunkSource, key Key) (*Reader, error) {
	r := &Reader{}
	if err := r.Reset(src, key); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-arms the reader over a (possibly different) chunk source and
// key, reusing the verification and cache tables and the scratch buffers of
// the previous run instead of reallocating them. The block cipher is rebuilt
// only when the key changes. Reset makes the reader sync.Pool-friendly: a
// server evaluating many views over protected documents pays the table
// allocations once per pooled reader.
func (r *Reader) Reset(src ChunkSource, key Key) error {
	if r.block == nil || !bytes.Equal(r.key, key) {
		block, err := blockCipher(key)
		if err != nil {
			return err
		}
		r.block = block
		r.key = append(r.key[:0], key...)
		copy(r.iv[:], cbcIV(r.key))
	}
	r.src = src
	r.man = src.Manifest()
	r.costs = Costs{}
	r.justFetched = r.justFetched[:0]
	r.trace = nil
	if r.verifiedChunks == nil {
		r.verifiedChunks = map[int]bool{}
		r.mhtChunks = map[int]*mhtChunk{}
		r.digestCache = map[int][]byte{}
		r.blockCache = map[int64][BlockSize]byte{}
		r.ctCache = map[int64][2]int64{}
	} else {
		clear(r.verifiedChunks)
		for _, c := range r.mhtChunks {
			clear(c.verified)
			clear(c.have)
			r.mhtFree = append(r.mhtFree, c)
		}
		clear(r.mhtChunks)
		clear(r.digestCache)
		clear(r.blockCache)
		clear(r.ctCache)
	}
	for i := range r.blockCacheKeys {
		r.blockCacheKeys[i] = -1
	}
	r.blockCachePos = 0
	for i := range r.ctCacheKeys {
		r.ctCacheKeys[i] = -1
	}
	r.ctCachePos = 0
	return nil
}

// Costs returns the accumulated cost record.
func (r *Reader) Costs() Costs { return r.costs }

// SetTrace attaches (or detaches, with nil) the tracing context that
// decrypt, verify and hash-fetch time is charged to.
func (r *Reader) SetTrace(t *trace.Context) { r.trace = t }

// Size implements skipindex.ByteSource.
func (r *Reader) Size() int64 { return int64(r.man.PlainLen) }

// ReadAt implements io.ReaderAt over the plaintext.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("secure: negative offset")
	}
	if off >= int64(r.man.PlainLen) {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > int64(r.man.PlainLen) {
		n = int(int64(r.man.PlainLen) - off)
	}
	if n == 0 {
		return 0, nil
	}
	r.justFetched = r.justFetched[:0]
	firstBlock := off / BlockSize
	lastBlock := (off + int64(n) - 1) / BlockSize
	plain, err := r.readBlocks(firstBlock, lastBlock)
	if err != nil {
		return 0, err
	}
	copy(p[:n], plain[off-firstBlock*BlockSize:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// readBlocks returns the decrypted bytes of blocks [first, last] inclusive,
// verifying integrity according to the scheme. The bytes live in the
// reader's scratch buffer and are valid until the next read.
func (r *Reader) readBlocks(first, last int64) ([]byte, error) {
	start := first * BlockSize
	end := (last + 1) * BlockSize
	if end > r.man.CiphertextLen {
		end = r.man.CiphertextLen
	}
	switch r.man.Scheme {
	case SchemeECB:
		return r.readECB(start, end)
	case SchemeECBMHT:
		if err := r.verifyMHT(start, end); err != nil {
			return nil, err
		}
		return r.readECB(start, end)
	case SchemeCBCSHA:
		return r.readCBC(start, end, true)
	case SchemeCBCSHAC:
		return r.readCBC(start, end, false)
	default:
		return nil, fmt.Errorf("secure: unknown scheme %v", r.man.Scheme)
	}
}

// readECB fetches and decrypts the ciphertext range with the position-XOR
// ECB construction (random access, block granularity). Recently decrypted
// blocks are served from the SOE-side block cache without re-transfer.
func (r *Reader) readECB(start, end int64) ([]byte, error) {
	r.trace.Begin(trace.PhaseDecrypt)
	defer r.trace.End()
	out := r.out[:0]
	for off := start; off < end; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.blockCache[blockIdx]; ok {
			out = append(out, plain[:]...)
			continue
		}
		ct, err := r.src.CiphertextRange(off, BlockSize)
		if err != nil {
			return nil, err
		}
		if !r.fetchedInCall(blockIdx) && !r.inCtCache(off) {
			r.costs.BytesTransferred += BlockSize
		}
		r.costs.BytesDecrypted += BlockSize
		decryptBlockAt(r.block, r.blk[:], ct, uint64(blockIdx))
		r.cachePut(blockIdx, r.blk[:])
		out = append(out, r.blk[:]...)
	}
	r.out = out
	return out, nil
}

// verifyMHT verifies the fragments overlapping [start, end) with the Merkle
// hash tree protocol of Appendix A: the SOE hashes the fragments it fetches,
// the terminal provides the hashes of the other fragments, and the SOE
// recomputes and compares the (decrypted) chunk digest.
func (r *Reader) verifyMHT(start, end int64) error {
	r.trace.Begin(trace.PhaseVerify)
	defer r.trace.End()
	chunkSize := int64(r.man.ChunkSize)
	fragSize := int64(r.man.FragmentSize)
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		cStart, cEnd := r.man.ChunkBounds(chunk)
		st := r.chunkState(chunk, int((cEnd-cStart+fragSize-1)/fragSize))
		// Fragments of this chunk overlapped by the requested range and not
		// yet verified.
		lo := start
		if cStart > lo {
			lo = cStart
		}
		hi := end
		if cEnd < hi {
			hi = cEnd
		}
		fLo, fHi := int((lo-cStart)/fragSize), int((hi-1-cStart)/fragSize)
		fresh := 0
		for f := fLo; f <= fHi; f++ {
			if !st.verified[f] {
				fresh++
			}
		}
		if fresh == 0 {
			continue
		}
		// The SOE receives each new fragment from the position of interest
		// to the end of the fragment, together with the terminal's
		// intermediate hash of the prefix (Appendix A), hashes it and keeps
		// the leaf. The verification below still hashes the whole fragment
		// (the prefix-state hand-off is modelled in the cost accounting);
		// tampering anywhere in the fragment therefore remains detected.
		for f := fLo; f <= fHi; f++ {
			if st.verified[f] {
				continue
			}
			fStart := cStart + int64(f)*fragSize
			fEnd := fStart + fragSize
			if fEnd > cEnd {
				fEnd = cEnd
			}
			frag, err := r.src.CiphertextRange(fStart, fEnd-fStart)
			if err != nil {
				return err
			}
			fetchFrom := fStart
			if start > fetchFrom && start < fEnd {
				fetchFrom = start
			}
			suffix := fEnd - fetchFrom
			r.costs.BytesTransferred += suffix
			r.costs.BytesHashed += suffix
			if fetchFrom > fStart {
				// Intermediate SHA-1 state of the prefix, computed by the
				// terminal.
				r.costs.BytesTransferred += 24
			}
			r.justFetched = append(r.justFetched, blockRange{from: fetchFrom / BlockSize, to: fEnd / BlockSize})
			// The transferred ciphertext stays in the SOE for the next few
			// reads so it is not paid for twice.
			r.ctCachePut(cStart/fragSize+int64(f), fetchFrom, fEnd)
			st.leaves[f] = sha1.Sum(frag)
			st.have[f] = true
			r.costs.FragmentsVerified++
		}
		// The terminal provides the hashes needed to recompute the root: a
		// Merkle co-path of ceil(log2(#fragments)) digests per verification
		// (the flat implementation below exchanges the missing leaves, but
		// the cost charged is the logarithmic co-path of the paper; the leaf
		// cache makes later verifications of the same chunk cheaper).
		r.trace.Begin(trace.PhaseHashFetch)
		all, err := r.src.FragmentHashes(chunk)
		r.trace.End()
		if err != nil {
			return err
		}
		numFrags := len(all)
		st.grow(numFrags)
		missing := 0
		for f := 0; f < numFrags; f++ {
			if !st.have[f] {
				missing++
			}
		}
		coPath := int64(bitsLen(numFrags))
		if int64(missing) < coPath {
			coPath = int64(missing)
		}
		r.costs.BytesTransferred += coPath * DigestSize
		for f := 0; f < numFrags; f++ {
			if !st.have[f] {
				st.leaves[f] = all[f]
				st.have[f] = true
			}
		}
		// Recompute the root over a scratch copy of the leaves (the fold
		// overwrites its input).
		r.leaves = append(r.leaves[:0], st.leaves[:numFrags]...)
		root := merkleCombine(r.leaves)
		r.costs.BytesHashed += int64(numFrags * DigestSize)
		digest, err := r.chunkDigest(chunk)
		if err != nil {
			return err
		}
		if !bytes.Equal(root[:], digest) {
			return fmt.Errorf("%w: chunk %d Merkle root mismatch", ErrIntegrity, chunk)
		}
		for f := fLo; f <= fHi; f++ {
			st.verified[f] = true
		}
		if !r.verifiedChunks[chunk] {
			r.verifiedChunks[chunk] = true
			r.costs.ChunksVerified++
		}
	}
	return nil
}

// chunkDigest returns the decrypted digest of a chunk, fetching and
// decrypting it the first time.
func (r *Reader) chunkDigest(chunk int) ([]byte, error) {
	if d, ok := r.digestCache[chunk]; ok {
		return d, nil
	}
	if chunk >= r.man.NumDigests {
		return nil, fmt.Errorf("%w: missing digest for chunk %d", ErrIntegrity, chunk)
	}
	enc, err := r.src.ChunkDigest(chunk)
	if err != nil {
		return nil, err
	}
	r.costs.BytesTransferred += int64(len(enc))
	r.costs.BytesDecrypted += int64(len(enc))
	r.costs.DigestsDecrypted++
	d := decryptDigest(r.block, enc, uint64(chunk))
	r.digestCache[chunk] = d
	return d, nil
}

// readCBC serves a plaintext range under the CBC schemes. Chunks touched for
// the first time are verified: CBC-SHA hashes the plaintext (whole-chunk
// decryption required), CBC-SHAC hashes the ciphertext (whole-chunk transfer
// but partial decryption).
func (r *Reader) readCBC(start, end int64, hashPlaintext bool) ([]byte, error) {
	chunkSize := int64(r.man.ChunkSize)
	out := r.out[:0]
	for chunk := int(start / chunkSize); chunk <= int((end-1)/chunkSize); chunk++ {
		cStart, cEnd := r.man.ChunkBounds(chunk)
		wholeChunkTransferred, err := r.verifyCBCChunk(chunk, hashPlaintext)
		if err != nil {
			return nil, err
		}
		out, err = r.serveCBCRange(out, cStart, cEnd, start, end, wholeChunkTransferred)
		if err != nil {
			return nil, err
		}
	}
	r.out = out
	return out, nil
}

// verifyCBCChunk verifies a chunk on first touch: CBC-SHA hashes the
// plaintext (whole-chunk decryption required), CBC-SHAC hashes the
// ciphertext (whole-chunk transfer but partial decryption). It reports
// whether this call transferred the whole chunk into the SOE (so the serve
// step does not charge those bytes again).
func (r *Reader) verifyCBCChunk(chunk int, hashPlaintext bool) (wholeChunkTransferred bool, err error) {
	if r.verifiedChunks[chunk] {
		return false, nil
	}
	r.trace.Begin(trace.PhaseVerify)
	defer r.trace.End()
	cStart, cEnd := r.man.ChunkBounds(chunk)
	chunkLen := cEnd - cStart
	r.costs.BytesTransferred += chunkLen
	digest, err := r.chunkDigest(chunk)
	if err != nil {
		return true, err
	}
	var computed [DigestSize]byte
	if hashPlaintext {
		plain, err := r.decryptCBCChunk(chunk)
		if err != nil {
			return true, err
		}
		r.costs.BytesDecrypted += chunkLen
		r.costs.BytesHashed += int64(len(plain))
		computed = sha1.Sum(plain)
	} else {
		chunkBytes, err := r.src.CiphertextRange(cStart, chunkLen)
		if err != nil {
			return true, err
		}
		r.costs.BytesHashed += chunkLen
		computed = sha1.Sum(chunkBytes)
	}
	if !bytes.Equal(computed[:], digest) {
		return true, fmt.Errorf("%w: chunk %d digest mismatch", ErrIntegrity, chunk)
	}
	r.verifiedChunks[chunk] = true
	r.costs.ChunksVerified++
	return true, nil
}

// serveCBCRange decrypts and appends the blocks of [start, end) that fall in
// chunk [cStart, cEnd) to out.
func (r *Reader) serveCBCRange(out []byte, cStart, cEnd, start, end int64, wholeChunkTransferred bool) ([]byte, error) {
	r.trace.Begin(trace.PhaseDecrypt)
	defer r.trace.End()
	lo := start
	if cStart > lo {
		lo = cStart
	}
	hi := end
	if cEnd < hi {
		hi = cEnd
	}
	// CBC random access needs the preceding ciphertext block.
	firstBlock := lo / BlockSize
	prev := r.prev[:]
	if firstBlock > 0 {
		pb, err := r.src.CiphertextRange((firstBlock-1)*BlockSize, BlockSize)
		if err != nil {
			return nil, err
		}
		copy(prev, pb)
		if !wholeChunkTransferred {
			r.costs.BytesTransferred += BlockSize
		}
	} else {
		copy(prev, r.iv[:])
	}
	for off := lo; off < hi; off += BlockSize {
		blockIdx := off / BlockSize
		if plain, ok := r.blockCache[blockIdx]; ok {
			out = append(out, plain[:]...)
			continue
		}
		if !wholeChunkTransferred {
			// Revisit of an already verified chunk: only the requested
			// blocks travel to the SOE.
			r.costs.BytesTransferred += BlockSize
		}
		r.costs.BytesDecrypted += BlockSize
		var prevBlock []byte
		if off == lo {
			prevBlock = prev
		} else {
			pb, err := r.src.CiphertextRange(off-BlockSize, BlockSize)
			if err != nil {
				return nil, err
			}
			prevBlock = pb
		}
		ct, err := r.src.CiphertextRange(off, BlockSize)
		if err != nil {
			return nil, err
		}
		decryptCBCBlock(r.block, r.blk[:], ct, prevBlock)
		r.cachePut(blockIdx, r.blk[:])
		out = append(out, r.blk[:]...)
	}
	return out, nil
}

// bitsLen returns ceil(log2(n)) for n >= 1.
func bitsLen(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// decryptCBCChunk decrypts a whole chunk (CBC-SHA verification path).
func (r *Reader) decryptCBCChunk(chunk int) ([]byte, error) {
	cStart, cEnd := r.man.ChunkBounds(chunk)
	firstBlock := cStart / BlockSize
	prev := r.iv[:]
	if firstBlock > 0 {
		pb, err := r.src.CiphertextRange((firstBlock-1)*BlockSize, BlockSize)
		if err != nil {
			return nil, err
		}
		prev = pb
	}
	ct, err := r.src.CiphertextRange(cStart, cEnd-cStart)
	if err != nil {
		return nil, err
	}
	return decryptCBCRange(r.block, ct, uint64(firstBlock), prev), nil
}

// Decrypt fully decrypts a protected document (publisher-side utility and
// test helper; verifies every chunk on the way).
func Decrypt(prot *Protected, key Key) ([]byte, error) {
	return DecryptSource(prot, key)
}

// DecryptSource fully decrypts a protected document served through any chunk
// source (e.g. a remote blob), verifying every chunk on the way: the
// brute-force client that transfers everything, against which the
// skip-driven remote reader is benchmarked.
func DecryptSource(src ChunkSource, key Key) ([]byte, error) {
	r, err := NewReader(src, key)
	if err != nil {
		return nil, err
	}
	plainLen := r.man.PlainLen
	out := make([]byte, plainLen)
	const step = 4096
	for off := 0; off < plainLen; off += step {
		n := step
		if off+n > plainLen {
			n = plainLen - off
		}
		if _, err := r.ReadAt(out[off:off+n], int64(off)); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return out, nil
}
