package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// decoder walks a checkpoint image frame by frame. All reads are
// bounds-checked against the actual input; declared lengths and counts
// are verified BEFORE any allocation sized from them, so memory use is
// O(len(input)) even for adversarial headers.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

// makeNonEmpty keeps decoded empty collections nil, so a decoded state
// compares field-for-field with a freshly captured one.
func makeNonEmpty[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// nextFrame validates and returns the payload of the next frame, which
// must have type want.
func (d *decoder) nextFrame(want byte) ([]byte, error) {
	if d.remaining() < 5 {
		return nil, fmt.Errorf("%w: %d bytes left at offset %d, need a frame header", ErrTruncated, d.remaining(), d.off)
	}
	t := d.b[d.off]
	n := binary.LittleEndian.Uint32(d.b[d.off+1 : d.off+5])
	if t != want {
		return nil, fmt.Errorf("%w: got %s at offset %d, want %s", ErrFrameOrder, frameName(t), d.off, frameName(want))
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %s frame declares %d bytes (cap %d)", ErrFrameSize, frameName(t), n, maxFramePayload)
	}
	total := 5 + int(n) + 4
	if d.remaining() < total {
		return nil, fmt.Errorf("%w: %s frame declares %d payload bytes, %d bytes left", ErrTruncated, frameName(t), n, d.remaining()-5)
	}
	body := d.b[d.off : d.off+5+int(n)]
	crc := binary.LittleEndian.Uint32(d.b[d.off+5+int(n) : d.off+total])
	if crc32Of(body) != crc {
		return nil, fmt.Errorf("%w: %s frame at offset %d", ErrFrameCRC, frameName(t), d.off)
	}
	d.off += total
	return body[5:], nil
}

// countedPayload splits payload into its leading element count and body,
// requiring count*elemSize == len(body) exactly. The multiplication
// cannot overflow: count is rejected first unless it is ≤ len(body),
// which is ≤ maxFramePayload.
func countedPayload(name string, payload []byte, elemSize int) (int, []byte, error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: %s frame too short for its count", ErrFrameSize, name)
	}
	cnt := binary.LittleEndian.Uint64(payload)
	body := payload[8:]
	if cnt > uint64(len(body)) || int(cnt)*elemSize != len(body) {
		return 0, nil, fmt.Errorf("%w: %s frame declares %d elements in %d bytes", ErrFrameSize, name, cnt, len(body))
	}
	return int(cnt), body, nil
}

// checkPreamble validates the fixed 16-byte file header.
func checkPreamble(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("%w: %d bytes, need a 16-byte preamble", ErrTruncated, len(data))
	}
	if string(data[:8]) != magic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, v, version)
	}
	// The reserved word must be zero in this version: rejecting nonzero
	// keeps it available for future use AND keeps every preamble byte
	// covered by some check.
	if r := binary.LittleEndian.Uint32(data[12:16]); r != 0 {
		return fmt.Errorf("%w: reserved word is %#x", ErrBadVersion, r)
	}
	return nil
}

// header checks the preamble and parses the header frame into a state
// holding only the scalars and the base watermark, plus the run metadata
// and chain binding. Reading no further is what keeps chain-aware
// pruning cheap: it learns what a link depends on from this prefix alone.
func (d *decoder) header() (*delaunay.BuildState, Meta, Chain, error) {
	var meta Meta
	var ch Chain
	if err := checkPreamble(d.b); err != nil {
		return nil, meta, ch, err
	}
	d.off = 16
	hdr, err := d.nextFrame(fHeader)
	if err != nil {
		return nil, meta, ch, err
	}
	if len(hdr) != hdrLen {
		return nil, meta, ch, fmt.Errorf("%w: header frame is %d bytes, want %d", ErrFrameSize, len(hdr), hdrLen)
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(hdr[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(hdr[off:]) }
	if hdr[4] > 1 {
		return nil, meta, ch, fmt.Errorf("%w: done flag is %d", ErrFrameSize, hdr[4])
	}
	n := u64(5)
	// Bound the counts before they are ever used as ints: a point set or
	// base log larger than a frame could even hold is structurally absurd.
	baseTris, baseFinal := u64(97), u64(105)
	if n > maxFramePayload/16 || baseTris > maxFramePayload/12 || baseFinal > baseTris {
		return nil, meta, ch, fmt.Errorf("%w: header declares %d points over a base of %d tris, %d final",
			ErrFrameSize, n, baseTris, baseFinal)
	}
	st := &delaunay.BuildState{
		Round: int32(u32(0)),
		Done:  hdr[4] != 0,
		N:     int(n),
		Base:  delaunay.Watermark{Round: int32(u32(93)), Tris: int(baseTris), Final: int(baseFinal)},
		Stats: delaunay.Stats{
			InCircleTests:    int64(u64(29)),
			TrianglesCreated: int64(u64(37)),
			Rounds:           int(int64(u64(45))),
			DepDepth:         int(int64(u64(53))),
		},
		Pred: geom.PredicateStats{
			Orient2DCalls: int64(u64(61)),
			Orient2DExact: int64(u64(69)),
			InCircleCalls: int64(u64(77)),
			InCircleExact: int64(u64(85)),
		},
	}
	meta = Meta{Seed: u64(13), Build: u64(21)}
	ch = Chain{BaseGen: u64(113), CRCTris: u32(121), CRCFinal: u32(125)}
	if st.Base == (delaunay.Watermark{}) && ch != (Chain{}) {
		return nil, meta, ch, fmt.Errorf("%w: a root carries chain binding %+v", ErrFrameSize, ch)
	}
	return st, meta, ch, nil
}

// Decode parses a checkpoint image produced by EncodeDelta (or committed
// by a Writer) into its state, run metadata and chain binding. It
// returns typed errors — never panics — on any invalid input: the frame
// discipline and cross-frame counts (matching element counts, a points
// frame empty exactly for a link, a footer echoing the resulting log
// length) yield the frame errors, and a state failing
// BuildState.Validate yields ErrInvalidState. Validation is what rejects
// a CRC-valid root with a non-finite point, or a CRC-valid link whose
// recorded watermark disagrees with its own suffix. Joining a link to its
// concrete base (digests, metadata) is the restorer's job.
func Decode(data []byte) (*delaunay.BuildState, Meta, Chain, error) {
	d := &decoder{b: data}
	st, meta, ch, err := d.header()
	if err != nil {
		return nil, meta, ch, err
	}

	pay, err := d.nextFrame(fPoints)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, body, err := countedPayload("points", pay, 16)
	if err != nil {
		return nil, meta, ch, err
	}
	want := st.N + 3
	if st.Base != (delaunay.Watermark{}) {
		want = 0 // a link's base holds the points
	}
	if cnt != want {
		return nil, meta, ch, fmt.Errorf("%w: %d points for n=%d over base %+v, want %d", ErrFrameSize, cnt, st.N, st.Base, want)
	}
	st.Pts = makeNonEmpty[geom.Point](cnt)
	for i := range st.Pts {
		st.Pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(body[16*i:]))
		st.Pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(body[16*i+8:]))
	}

	pay, err = d.nextFrame(fTriV)
	if err != nil {
		return nil, meta, ch, err
	}
	nt, body, err := countedPayload("triangle-corners", pay, 12)
	if err != nil {
		return nil, meta, ch, err
	}
	st.Tris = makeNonEmpty[delaunay.Tri](nt)
	for i := range st.Tris {
		st.Tris[i].V[0] = int32(binary.LittleEndian.Uint32(body[12*i:]))
		st.Tris[i].V[1] = int32(binary.LittleEndian.Uint32(body[12*i+4:]))
		st.Tris[i].V[2] = int32(binary.LittleEndian.Uint32(body[12*i+8:]))
	}

	pay, err = d.nextFrame(fELen)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, elens, err := countedPayload("encroacher-lengths", pay, 4)
	if err != nil {
		return nil, meta, ch, err
	}
	if cnt != nt {
		return nil, meta, ch, fmt.Errorf("%w: %d encroacher lengths for %d triangles", ErrFrameSize, cnt, nt)
	}

	pay, err = d.nextFrame(fEVal)
	if err != nil {
		return nil, meta, ch, err
	}
	totalE, evals, err := countedPayload("encroacher-values", pay, 4)
	if err != nil {
		return nil, meta, ch, err
	}
	// The per-triangle lengths must tile the value array exactly. Summing
	// u32 lengths in uint64 cannot overflow (each ≤ 2^32, count ≤ 2^28).
	var sum uint64
	for i := 0; i < nt; i++ {
		sum += uint64(binary.LittleEndian.Uint32(elens[4*i:]))
	}
	if sum != uint64(totalE) {
		return nil, meta, ch, fmt.Errorf("%w: encroacher lengths sum to %d, values frame has %d", ErrFrameSize, sum, totalE)
	}
	// One backing array for every E list: the slices are read-only after
	// restore, and a single allocation keeps the decode at two passes.
	evBack := make([]int32, totalE)
	for i := range evBack {
		evBack[i] = int32(binary.LittleEndian.Uint32(evals[4*i:]))
	}
	off := 0
	for i := 0; i < nt; i++ {
		l := int(binary.LittleEndian.Uint32(elens[4*i:]))
		if l > 0 {
			st.Tris[i].E = evBack[off : off+l : off+l]
		}
		off += l
	}

	pay, err = d.nextFrame(fDepth)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, body, err = countedPayload("depths", pay, 4)
	if err != nil {
		return nil, meta, ch, err
	}
	if cnt != nt {
		return nil, meta, ch, fmt.Errorf("%w: %d depths for %d triangles", ErrFrameSize, cnt, nt)
	}
	st.Depth = makeNonEmpty[int32](cnt)
	for i := range st.Depth {
		st.Depth[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}

	pay, err = d.nextFrame(fFinal)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, body, err = countedPayload("final-ids", pay, 4)
	if err != nil {
		return nil, meta, ch, err
	}
	st.Final = makeNonEmpty[int32](cnt)
	for i := range st.Final {
		st.Final[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}

	pay, err = d.nextFrame(fFaces)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, body, err = countedPayload("faces", pay, 24)
	if err != nil {
		return nil, meta, ch, err
	}
	st.Faces = makeNonEmpty[delaunay.FaceRec](cnt)
	for i := range st.Faces {
		st.Faces[i].Key = binary.LittleEndian.Uint64(body[24*i:])
		st.Faces[i].W0 = binary.LittleEndian.Uint64(body[24*i+8:])
		st.Faces[i].W1 = binary.LittleEndian.Uint64(body[24*i+16:])
	}

	pay, err = d.nextFrame(fCand)
	if err != nil {
		return nil, meta, ch, err
	}
	cnt, body, err = countedPayload("candidates", pay, 8)
	if err != nil {
		return nil, meta, ch, err
	}
	st.Cand = makeNonEmpty[uint64](cnt)
	for i := range st.Cand {
		st.Cand[i] = binary.LittleEndian.Uint64(body[8*i:])
	}

	pay, err = d.nextFrame(fFooter)
	if err != nil {
		return nil, meta, ch, err
	}
	if len(pay) != 8 || binary.LittleEndian.Uint64(pay) != uint64(st.Base.Tris+nt) {
		return nil, meta, ch, fmt.Errorf("%w: footer echo mismatch", ErrFrameSize)
	}
	if d.remaining() != 0 {
		return nil, meta, ch, fmt.Errorf("%w: %d trailing bytes after footer", ErrFrameSize, d.remaining())
	}
	if err := st.Validate(); err != nil {
		return nil, meta, ch, fmt.Errorf("%w: %v", ErrInvalidState, err)
	}
	return st, meta, ch, nil
}

// Kind is the role of a committed generation in its chain: a root holds
// the whole build, a link the increment over an earlier generation.
type Kind uint8

const (
	KindFull  Kind = 1 + iota // a root
	KindDelta                 // a link
)

func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	}
	return "kind-?"
}
