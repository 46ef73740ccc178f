package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/delaunay"
)

// Meta is the run identity carried alongside the build state: enough for
// a restarted process to resume the SAME logical run (the point-set seed
// and which build of a rebuild loop was interrupted), not merely a run of
// the same shape.
type Meta struct {
	Seed  uint64 // point-generator seed of the interrupted build
	Build uint64 // build number within the server's rebuild loop
}

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// frame assembles one complete frame: type, length, payload, CRC32C over
// everything before the CRC.
func frame(t byte, payload []byte) []byte {
	buf := make([]byte, 0, 5+len(payload)+4)
	buf = append(buf, t)
	buf = le32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return le32(buf, crc32Of(buf))
}

func crc32Of(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// encodeFrames serializes st+meta+ch into the fixed frame sequence. Each
// element of the result is one complete frame, so a writer can interleave
// per-frame I/O (and per-frame fault injection) without re-parsing. A
// link's log frames carry only its suffix and its points frame is empty,
// so it costs O(suffix + faces + candidates) to encode no matter how
// large the build below its watermark has grown.
func encodeFrames(st *delaunay.BuildState, meta Meta, ch Chain) [][]byte {
	frames := make([][]byte, 0, numFrames)
	hdr := make([]byte, 0, hdrLen)
	hdr = le32(hdr, uint32(st.Round))
	if st.Done {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	hdr = le64(hdr, uint64(st.N))
	hdr = le64(hdr, meta.Seed)
	hdr = le64(hdr, meta.Build)
	// The work counters travel too: resumed runs must report the same
	// totals as uninterrupted ones (the equality suites compare Stats).
	hdr = le64(hdr, uint64(st.Stats.InCircleTests))
	hdr = le64(hdr, uint64(st.Stats.TrianglesCreated))
	hdr = le64(hdr, uint64(int64(st.Stats.Rounds)))
	hdr = le64(hdr, uint64(int64(st.Stats.DepDepth)))
	hdr = le64(hdr, uint64(st.Pred.Orient2DCalls))
	hdr = le64(hdr, uint64(st.Pred.Orient2DExact))
	hdr = le64(hdr, uint64(st.Pred.InCircleCalls))
	hdr = le64(hdr, uint64(st.Pred.InCircleExact))
	hdr = le32(hdr, uint32(st.Base.Round))
	hdr = le64(hdr, uint64(st.Base.Tris))
	hdr = le64(hdr, uint64(st.Base.Final))
	hdr = le64(hdr, ch.BaseGen)
	hdr = le32(hdr, ch.CRCTris)
	hdr = le32(hdr, ch.CRCFinal)
	frames = append(frames, frame(fHeader, hdr))

	pts := make([]byte, 0, 8+16*len(st.Pts))
	pts = le64(pts, uint64(len(st.Pts)))
	for _, p := range st.Pts {
		pts = le64(pts, math.Float64bits(p.X))
		pts = le64(pts, math.Float64bits(p.Y))
	}
	frames = append(frames, frame(fPoints, pts))

	triv := make([]byte, 0, 8+12*len(st.Tris))
	triv = le64(triv, uint64(len(st.Tris)))
	for _, t := range st.Tris {
		triv = le32(triv, uint32(t.V[0]))
		triv = le32(triv, uint32(t.V[1]))
		triv = le32(triv, uint32(t.V[2]))
	}
	frames = append(frames, frame(fTriV, triv))

	elen := make([]byte, 0, 8+4*len(st.Tris))
	elen = le64(elen, uint64(len(st.Tris)))
	totalE := 0
	for _, t := range st.Tris {
		elen = le32(elen, uint32(len(t.E)))
		totalE += len(t.E)
	}
	frames = append(frames, frame(fELen, elen))

	eval := make([]byte, 0, 8+4*totalE)
	eval = le64(eval, uint64(totalE))
	for _, t := range st.Tris {
		for _, w := range t.E {
			eval = le32(eval, uint32(w))
		}
	}
	frames = append(frames, frame(fEVal, eval))

	dep := make([]byte, 0, 8+4*len(st.Depth))
	dep = le64(dep, uint64(len(st.Depth)))
	for _, d := range st.Depth {
		dep = le32(dep, uint32(d))
	}
	frames = append(frames, frame(fDepth, dep))

	fin := make([]byte, 0, 8+4*len(st.Final))
	fin = le64(fin, uint64(len(st.Final)))
	for _, id := range st.Final {
		fin = le32(fin, uint32(id))
	}
	frames = append(frames, frame(fFinal, fin))

	faces := make([]byte, 0, 8+16*len(st.Faces))
	faces = le64(faces, uint64(len(st.Faces)))
	for _, f := range st.Faces {
		faces = le64(faces, f.Key)
		faces = le64(faces, f.W)
	}
	frames = append(frames, frame(fFaces, faces))

	cd := make([]byte, 0, 8+8*len(st.Cand))
	cd = le64(cd, uint64(len(st.Cand)))
	for _, k := range st.Cand {
		cd = le64(cd, k)
	}
	frames = append(frames, frame(fCand, cd))

	foot := le64(make([]byte, 0, 8), uint64(st.Base.Tris+len(st.Tris)))
	return append(frames, frame(fFooter, foot))
}

// Chain binds a link generation to its base: which generation it
// extends, and CRC32C digests over the base's triangle-corner and
// final-id streams. The digests tie the link to the base's CONTENT —
// a base of the right shape but the wrong build (or a tampered one)
// fails the digest check at restore, which is what makes a chain of
// CRC-valid files still refuse to join across runs. A root's Chain is
// zero.
type Chain struct {
	BaseGen  uint64
	CRCTris  uint32
	CRCFinal uint32
}

// crcTris extends a running CRC32C over a triangle-corner stream; called
// with crc 0 and the whole log it digests a full prefix, called with the
// tip's digest and a suffix it extends in O(suffix).
func crcTris(crc uint32, tris []delaunay.Tri) uint32 {
	var buf [12]byte
	for _, t := range tris {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.V[0]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(t.V[1]))
		binary.LittleEndian.PutUint32(buf[8:], uint32(t.V[2]))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// crcFinal is crcTris for the final-id stream.
func crcFinal(crc uint32, final []int32) uint32 {
	var buf [4]byte
	for _, id := range final {
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// preamble returns the fixed file header.
func preamble() []byte {
	b := make([]byte, 0, 16)
	b = append(b, magic...)
	b = le32(b, version)
	b = le32(b, 0) // reserved
	return b
}

// EncodeDelta serializes a build state — a root or a link — into one
// checkpoint image: the exact bytes SaveAuto would commit for it, with ch
// binding a link to the generation holding its base. It encodes st as
// given, without validating it. Exposed for tests, corpus generation and
// benchmarks; production writes go through Writer.SaveAuto, which adds
// the atomic-commit protocol. For every input Decode accepts,
// EncodeDelta(Decode(input)) reproduces the input byte for byte.
func EncodeDelta(st *delaunay.BuildState, meta Meta, ch Chain) []byte {
	out := preamble()
	for _, fr := range encodeFrames(st, meta, ch) {
		out = append(out, fr...)
	}
	return out
}

// Encode serializes a root: EncodeDelta with no chain binding.
func Encode(st *delaunay.BuildState, meta Meta) []byte { return EncodeDelta(st, meta, Chain{}) }
