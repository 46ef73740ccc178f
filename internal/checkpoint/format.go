// Package checkpoint is the durability layer of the serve-while-building
// story: a versioned, framed on-disk format for a triangulation build
// state (delaunay.BuildState) plus a crash-safe writer and restorer.
//
// # Format
//
// A checkpoint file is a fixed preamble followed by a fixed sequence of
// frames:
//
//	preamble  := magic[8] version:u32le reserved:u32le
//	frame     := type:u8 len:u32le payload[len] crc:u32le
//
// The CRC is CRC32-C (Castagnoli) over type || len || payload, so a bit
// flip anywhere in a frame — including its own header — fails the check.
// Frames appear in exactly one order (header, points, triangle corners,
// encroacher lengths, encroacher values, depths, final ids, faces,
// candidates, footer); the footer frame marks a complete file, so
// truncation at ANY byte is detected: mid-frame truncation fails the
// length or CRC check, and truncation at a frame boundary leaves the
// footer missing.
//
// Every file holds one image of one kind: a BuildState over a base
// watermark. A root's base is the empty prefix, so it carries the whole
// build; a link's base is an earlier generation of the same build, so
// its log frames carry only the suffix past that watermark and its
// points frame is empty. The header records the base watermark and the
// chain binding to the base generation (all zero for a root).
//
// Multi-byte integers are little-endian. Element counts inside a payload
// are cross-checked against the payload length before any allocation, so
// a decoder's memory use is bounded by the input's actual size — an
// attacker-controlled length field cannot force an over-allocation.
//
// # Crash safety
//
// SaveAuto writes to a dot-prefixed temp file in the target directory,
// fsyncs it, renames it to its final generation-numbered name, and
// fsyncs the directory. A crash at any byte therefore leaves either the
// previous generation or a fully valid new one — never a half-written
// file under a committed name. Generation numbers only grow, so Restore
// walks the file names newest-first and falls back past any generation
// that fails full validation.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// magic identifies a checkpoint file; the trailing digit is the major
	// format generation (bumped only on incompatible preamble changes).
	magic = "RIDTCKP1"
	// version is the frame-layout version within the magic's generation.
	// Version 2 gave every image the one header frame; version 3 cut a
	// face record to 16 bytes (the face-map entry is one word). Images of
	// version 1 (separate full and delta headers) and version 2 (24-byte
	// face records) are rejected as ErrBadVersion.
	version = 3

	// maxFramePayload caps a single frame's declared length. Frames are
	// never close to this in practice; the cap exists so corrupt or
	// adversarial headers are rejected as structurally invalid rather
	// than probed against the remaining input.
	maxFramePayload = 1 << 30
)

// Frame types, in their required file order.
const (
	fHeader   byte = 1 + iota // scalars, base watermark and chain binding
	fPoints                   // input points + 3 bounding corners (empty for a link)
	fTriV                     // triangle corner indices, 3 per triangle
	fELen                     // per-triangle encroacher-list lengths
	fEVal                     // concatenated encroacher lists
	fDepth                    // per-triangle dependence depths
	fFinal                    // final triangle ids, ascending
	fFaces                    // face-map snapshot records: key u64, entry word u64
	fCand                     // candidate face keys for the next round
	fFooter                   // completion marker (echoes the resulting log length)
	numFrames = int(fFooter)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hdrLen is the fixed header-frame payload size: round u32, done u8,
// n u64, meta (2×u64), Stats (4×u64), PredicateStats (4×u64), then the
// base watermark (round u32, tris u64, final u64) and the chain binding
// (base generation u64 and two CRC32C prefix digests, u32 each).
const hdrLen = 4 + 1 + 8 + 2*8 + 4*8 + 4*8 + (4 + 8 + 8) + (8 + 2*4)

// Typed decode errors. Every structurally invalid input maps to one of
// these (possibly wrapped with position detail) — never a panic.
var (
	ErrBadMagic   = errors.New("checkpoint: bad magic")
	ErrBadVersion = errors.New("checkpoint: unsupported version")
	ErrTruncated  = errors.New("checkpoint: truncated")
	ErrFrameCRC   = errors.New("checkpoint: frame CRC mismatch")
	ErrFrameOrder = errors.New("checkpoint: frame out of order")
	ErrFrameSize  = errors.New("checkpoint: frame size inconsistent")

	// ErrNoCheckpoint is returned by Restore when the directory holds no
	// checkpoint files at all — callers treat it as "start fresh".
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

	// ErrInvalidState marks an image whose frames parse but whose state
	// fails delaunay's BuildState.Validate: an index out of range, a
	// non-finite point, or a link whose recorded watermark disagrees with
	// its own suffix.
	ErrInvalidState = errors.New("checkpoint: invalid build state")

	// ErrDeltaChain marks a link that cannot be joined to its recorded
	// base: the base generation is missing or invalid, or its watermark,
	// prefix digests, or run metadata disagree with what the link
	// recorded. Restore treats it like any corruption — fall back.
	ErrDeltaChain = errors.New("checkpoint: delta chain broken")
)

func frameName(t byte) string {
	switch t {
	case fHeader:
		return "header"
	case fPoints:
		return "points"
	case fTriV:
		return "triangle-corners"
	case fELen:
		return "encroacher-lengths"
	case fEVal:
		return "encroacher-values"
	case fDepth:
		return "depths"
	case fFinal:
		return "final-ids"
	case fFaces:
		return "faces"
	case fCand:
		return "candidates"
	case fFooter:
		return "footer"
	}
	return fmt.Sprintf("frame-%d", t)
}
