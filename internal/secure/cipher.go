// Package secure implements the confidentiality and integrity layer of
// section 6 and Appendix A of the paper: position-aware Triple-DES block
// encryption (so identical plaintext blocks yield different ciphertexts), a
// chunk/fragment layout with per-chunk digests, the Merkle-hash-tree-based
// random integrity checking (ECB-MHT) and the comparison schemes ECB,
// CBC-SHA and CBC-SHAC evaluated by Figure 11, together with the untrusted
// terminal protocol and the SOE-side secure reader that decrypts and
// verifies on demand while accounting for every byte that crosses the SOE
// boundary.
//
// The package has grown three seams beyond the paper's single-shot protect:
//
//   - ChunkSource abstracts where ciphertext lives: *Protected serves it
//     from memory, internal/remote fetches it over HTTP range requests from
//     an untrusted blob server — the Reader is identical over both, so the
//     cost accounting (BytesTransferred, BytesDecrypted, integrity hashes)
//     is byte-for-byte the same local and remote. Manifest marshals the
//     container layout the remote side needs before its first range
//     request.
//
//   - Update re-encrypts only the chunks an edit dirtied (position-XOR ECB
//     reuses clean-chunk ciphertext byte-identically; CBC schemes reuse the
//     prefix before the first change), carries a monotonic document version
//     in the v2 container, and emits binary Deltas so remote caches evict
//     only dirty pages.
//
//   - Readers are single-goroutine but the *Protected beneath them is
//     immutable once built (updates swap a new snapshot), so the parallel
//     scan opens one Reader per region worker over the same snapshot; each
//     reader verifies and decrypts independently with its own chunk state.
//
// Readers report per-phase time (decrypt, verify, hash fetch) into
// internal/trace contexts when tracing is on.
package secure

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the encryption block size (Triple-DES, 8 bytes), the unit of
// encryption of Appendix A.
const BlockSize = 8

// DefaultFragmentSize is the fragment size (random-access granularity inside
// a chunk).
const DefaultFragmentSize = 256

// DefaultChunkSize is the chunk size (integrity-checking granularity,
// dimensioned by the SOE memory).
const DefaultChunkSize = 2048

// DigestSize is the SHA-1 digest size.
const DigestSize = sha1.Size

// encryptedDigestSize is the size of a digest once padded to the block size
// and encrypted.
const encryptedDigestSize = ((DigestSize + BlockSize - 1) / BlockSize) * BlockSize

// ErrIntegrity is returned when tampering is detected.
var ErrIntegrity = errors.New("secure: integrity check failed")

// ErrBadKey wraps key-size errors.
var ErrBadKey = errors.New("secure: invalid key")

// Key is a 24-byte Triple-DES key.
type Key []byte

// NewKey validates a 24-byte key.
func NewKey(b []byte) (Key, error) {
	if len(b) != 24 {
		return nil, fmt.Errorf("%w: need 24 bytes, got %d", ErrBadKey, len(b))
	}
	return Key(append([]byte(nil), b...)), nil
}

// DeriveKey deterministically derives a 24-byte key from a passphrase
// (SHA-1 based KDF; the paper assumes keys are provisioned through a secure
// channel, so the derivation scheme is a convenience of this library).
func DeriveKey(passphrase string) Key {
	out := make([]byte, 0, 24)
	counter := 0
	for len(out) < 24 {
		h := sha1.Sum([]byte(fmt.Sprintf("xmlac-key-%d-%s", counter, passphrase)))
		out = append(out, h[:]...)
		counter++
	}
	return Key(out[:24])
}

// blockCipher builds the Triple-DES cipher for a key.
func blockCipher(key Key) (cipher.Block, error) {
	if len(key) != 24 {
		return nil, fmt.Errorf("%w: need 24 bytes, got %d", ErrBadKey, len(key))
	}
	return des.NewTripleDESCipher(key)
}

// xorPosition merges the block position into the plaintext block before
// encryption (Appendix A: "a plaintext block b at absolute position p in the
// document is encrypted by Ek(b XOR p)"), which prevents identical plaintext
// blocks from producing identical ciphertext without the random-access cost
// of CBC chaining.
func xorPosition(dst, src []byte, blockIndex uint64) {
	var pos [BlockSize]byte
	binary.LittleEndian.PutUint64(pos[:], blockIndex)
	for i := 0; i < BlockSize; i++ {
		dst[i] = src[i] ^ pos[i]
	}
}

// encryptBlockAt encrypts one 8-byte block at the given block index with the
// position-XOR ECB construction.
func encryptBlockAt(block cipher.Block, dst, src []byte, blockIndex uint64) {
	var tmp [BlockSize]byte
	xorPosition(tmp[:], src, blockIndex)
	block.Encrypt(dst, tmp[:])
}

// decryptBlockAt reverses encryptBlockAt. It decrypts straight into dst and
// removes the position mask in place, so it needs no temporary (one would
// escape to the heap through the cipher.Block interface).
func decryptBlockAt(block cipher.Block, dst, src []byte, blockIndex uint64) {
	block.Decrypt(dst, src)
	xorPosition(dst, dst, blockIndex)
}

// encryptPositionECB encrypts a whole buffer (length multiple of BlockSize)
// with the position-XOR ECB construction, starting at block index
// firstBlock.
func encryptPositionECB(block cipher.Block, data []byte, firstBlock uint64) []byte {
	out := make([]byte, len(data))
	for off := 0; off < len(data); off += BlockSize {
		encryptBlockAt(block, out[off:off+BlockSize], data[off:off+BlockSize], firstBlock+uint64(off/BlockSize))
	}
	return out
}

// decryptPositionECB reverses encryptPositionECB.
func decryptPositionECB(block cipher.Block, data []byte, firstBlock uint64) []byte {
	out := make([]byte, len(data))
	for off := 0; off < len(data); off += BlockSize {
		decryptBlockAt(block, out[off:off+BlockSize], data[off:off+BlockSize], firstBlock+uint64(off/BlockSize))
	}
	return out
}

// encryptCBC encrypts a buffer in CBC mode with a fixed derived IV (the
// comparison schemes CBC-SHA and CBC-SHAC of Figure 11).
func encryptCBC(block cipher.Block, data []byte, key Key) []byte {
	return encryptCBCFrom(block, data, cbcIV(key))
}

// encryptCBCFrom encrypts a buffer suffix in CBC mode chained off prev, the
// ciphertext of the block immediately preceding the suffix (or the derived IV
// when the suffix starts the document). Encrypting [0, len) with the IV is
// exactly encryptCBC; re-encrypting a suffix whose preceding ciphertext is
// unchanged reproduces, byte for byte, what a from-scratch encryption of the
// whole buffer would put there — the property chunk-granular updates rely on.
func encryptCBCFrom(block cipher.Block, data, prev []byte) []byte {
	mode := cipher.NewCBCEncrypter(block, prev)
	out := make([]byte, len(data))
	mode.CryptBlocks(out, data)
	return out
}

// cbcIV derives the fixed CBC initialization vector of encryptCBC.
func cbcIV(key Key) []byte {
	iv := sha1.Sum(append([]byte("xmlac-iv"), key...))
	return iv[:BlockSize]
}

// decryptCBCRange decrypts the CBC ciphertext blocks [firstBlock,
// firstBlock+n) given the ciphertext of the preceding block (or the IV for
// the first block).
func decryptCBCRange(block cipher.Block, ciphertext []byte, firstBlock uint64, prev []byte) []byte {
	out := make([]byte, len(ciphertext))
	prevBlock := prev
	for off := 0; off < len(ciphertext); off += BlockSize {
		decryptCBCBlock(block, out[off:off+BlockSize], ciphertext[off:off+BlockSize], prevBlock)
		prevBlock = ciphertext[off : off+BlockSize]
	}
	_ = firstBlock
	return out
}

// decryptCBCBlock decrypts one CBC block into dst given the preceding
// ciphertext block (or the IV). dst must not overlap prev.
func decryptCBCBlock(block cipher.Block, dst, ct, prev []byte) {
	block.Decrypt(dst, ct)
	for i := 0; i < BlockSize; i++ {
		dst[i] ^= prev[i]
	}
}

// pad pads data with zero bytes to a multiple of BlockSize.
func pad(data []byte) []byte {
	rem := len(data) % BlockSize
	if rem == 0 {
		return data
	}
	out := make([]byte, len(data)+BlockSize-rem)
	copy(out, data)
	return out
}

// encryptDigest encrypts a chunk digest (padded to the block size) under the
// document key with a position tied to the chunk index so digests cannot be
// swapped between chunks.
func encryptDigest(block cipher.Block, digest []byte, chunkIndex uint64) []byte {
	buf := make([]byte, encryptedDigestSize)
	copy(buf, digest)
	// Use a distinct position space (high bit set) for digests.
	return encryptPositionECB(block, buf, 1<<62+chunkIndex*uint64(encryptedDigestSize/BlockSize))
}

// decryptDigest reverses encryptDigest.
func decryptDigest(block cipher.Block, enc []byte, chunkIndex uint64) []byte {
	out := decryptPositionECB(block, enc, 1<<62+chunkIndex*uint64(encryptedDigestSize/BlockSize))
	return out[:DigestSize]
}
