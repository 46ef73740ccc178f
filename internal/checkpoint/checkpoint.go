package checkpoint

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/delaunay"
	"repro/internal/fault"
)

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ridt"
	badSuffix  = ".bad"
	tmpPrefix  = ".tmp-"

	// keepGenerations bounds the on-disk history: the newest
	// keepGenerations generations are retained as restore TIPS, plus —
	// chains — every base a retained link transitively needs. Older tips
	// exist only as fallbacks past a corrupt newest file; three levels
	// survive a crash mid-commit plus one bad generation with room to
	// spare.
	keepGenerations = 3

	// DefaultMaxChain is the chain length cap: after this many links
	// since the last root, SaveAuto writes a root. The cap bounds both
	// restore work (each link re-digests its base) and the blast radius of
	// a lost base — a chain is only as durable as its oldest link.
	DefaultMaxChain = 8
)

func ckptName(gen uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, gen, ckptSuffix) }

func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 16, 64)
	return g, err == nil
}

// chainTip is the writer's record of its newest committed generation:
// everything a subsequent link needs to bind to it (identity, watermark,
// running prefix digests) plus the chain length for the SaveAuto policy.
type chainTip struct {
	gen   uint64
	meta  Meta
	wm    delaunay.Watermark
	crcT  uint32 // CRC32C over the committed triangle-corner stream
	crcF  uint32 // CRC32C over the committed final-id stream
	links int    // links since the last root
}

// Writer commits checkpoint generations to a directory. Generation
// numbers are monotone across process restarts: a new Writer resumes
// numbering above everything already on disk, so "newest" is always
// well-defined by filename alone.
//
// A Writer serializes its operations internally (SaveAuto and Scrub may
// be called from different goroutines); the intended topology is one
// saver goroutine fed snapshots by the build's publisher, with a
// scrubber sharing the writer.
type Writer struct {
	mu  sync.Mutex
	dir string
	gen uint64 // next generation to write
	tip *chainTip
}

// NewWriter opens (creating if needed) dir for checkpoint commits and
// removes any temp files a crashed predecessor left behind. A fresh
// writer has no chain tip, so its first save is a root.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan dir: %w", err)
	}
	w := &Writer{dir: dir, gen: 1}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, ent.Name())) // crashed mid-write; never committed
			continue
		}
		if g, ok := parseGen(ent.Name()); ok && g >= w.gen {
			w.gen = g + 1
		}
	}
	return w, nil
}

// Dir returns the directory this writer commits to.
func (w *Writer) Dir() string { return w.dir }

// SaveAuto commits a captured (complete) state as the next generation —
// a link over the writer's chain tip when the tip belongs to the same run
// and the chain is shorter than DefaultMaxChain, a root otherwise — and
// returns the committed path and which role was written. The commit is
// write-temp, fsync, rename, fsync-dir. On any error (including injected
// ones) the temp file is
// removed and the directory still holds only fully committed
// generations.
//
// Fault sites: CheckpointFrame fires before each frame write,
// CheckpointCommit before each step of the commit sequence — so the
// ridtfault suites can force an I/O error or crash at every distinct
// point of the protocol.
func (w *Writer) SaveAuto(st *delaunay.BuildState, meta Meta) (string, Kind, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	base := w.tip
	if base != nil && (base.meta != meta || base.links >= DefaultMaxChain) {
		base = nil
	}
	path, err := w.save(st, meta, base)
	if err != nil {
		return "", 0, err
	}
	if w.tip.links == 0 {
		return path, KindFull, nil
	}
	return path, KindDelta, nil
}

// save commits st as a link over base, or as a root when base is nil or
// st does not extend base's watermark (a regressed or unrelated build),
// and makes the committed generation the chain tip. The caller holds
// w.mu.
func (w *Writer) save(st *delaunay.BuildState, meta Meta, base *chainTip) (string, error) {
	img, ch, links := st, Chain{}, 0
	if base != nil {
		if d, err := st.DeltaSince(base.wm); err == nil {
			img, links = d, base.links+1
			ch = Chain{BaseGen: base.gen, CRCTris: base.crcT, CRCFinal: base.crcF}
		}
	}
	gen := w.gen
	path, err := w.commitImage(gen, encodeFrames(img, meta, ch))
	if err != nil {
		return "", err
	}
	w.gen = gen + 1
	// The tip's running digests extend over just the image's own log:
	// O(link) bookkeeping, matching the O(link) encode.
	w.tip = &chainTip{
		gen:   gen,
		meta:  meta,
		wm:    st.Watermark(),
		crcT:  crcTris(ch.CRCTris, img.Tris),
		crcF:  crcFinal(ch.CRCFinal, img.Final),
		links: links,
	}
	w.prune(gen)
	return path, nil
}

// commitImage runs the atomic-commit protocol for one encoded generation:
// temp write, fsync, rename, fsync-dir. Returns the committed path.
func (w *Writer) commitImage(gen uint64, frames [][]byte) (string, error) {
	final := filepath.Join(w.dir, ckptName(gen))
	tmp := filepath.Join(w.dir, tmpPrefix+ckptName(gen))
	if err := writeTemp(tmp, frames); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := commitStep(func() error { return os.Rename(tmp, final) }); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: commit rename: %w", err)
	}
	if err := commitStep(func() error { return syncDir(w.dir) }); err != nil {
		return "", fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return final, nil
}

// writeTemp writes and fsyncs one image to path, frame by frame, firing
// CheckpointFrame before each frame write.
func writeTemp(path string, frames [][]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(preamble()); err != nil {
		return fmt.Errorf("checkpoint: write preamble: %w", err)
	}
	for _, fr := range frames {
		if err := fault.InjectErr(fault.CheckpointFrame); err != nil {
			return fmt.Errorf("checkpoint: write frame: %w", err)
		}
		if _, err := f.Write(fr); err != nil {
			return fmt.Errorf("checkpoint: write frame: %w", err)
		}
	}
	if err := commitStep(f.Sync); err != nil {
		return fmt.Errorf("checkpoint: fsync temp: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	return nil
}

// commitStep runs one step of the commit sequence behind its fault site.
func commitStep(step func() error) error {
	if err := fault.InjectErr(fault.CheckpointCommit); err != nil {
		return err
	}
	return step()
}

// readHeader reads a committed file's preamble and header frame only:
// the state it returns holds just the scalars and the base watermark.
func readHeader(path string) (*delaunay.BuildState, Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Chain{}, err
	}
	defer f.Close()
	buf := make([]byte, 16+5+hdrLen+4)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, Chain{}, err
	}
	st, _, ch, err := (&decoder{b: buf[:n]}).header()
	return st, ch, err
}

// prune removes generations no longer reachable from a retained tip: the
// newest keepGenerations generations stay as restore tips, and every base
// a retained link transitively records stays with them — deleting a base
// from under a live link would orphan the whole chain, which is exactly
// the failure the scrubber exists to repair, not one pruning may cause.
// Best-effort: a prune failure never fails a save.
func (w *Writer) prune(newest uint64) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	var gens []uint64
	for _, ent := range ents {
		if g, ok := parseGen(ent.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	tips := gens
	if len(tips) > keepGenerations {
		tips = tips[:keepGenerations]
	}
	keep := make(map[uint64]bool, len(gens))
	for _, t := range tips {
		g := t
		// The walk is bounded: each hop strictly decreases g, and a hop
		// into an unreadable file or a root stops the chain.
		for steps := 0; steps <= len(gens); steps++ {
			if keep[g] {
				break
			}
			keep[g] = true
			hdr, ch, err := readHeader(filepath.Join(w.dir, ckptName(g)))
			if err != nil || hdr.Base == (delaunay.Watermark{}) || ch.BaseGen >= g {
				break
			}
			g = ch.BaseGen
		}
	}
	for _, g := range gens {
		if !keep[g] {
			os.Remove(filepath.Join(w.dir, ckptName(g)))
		}
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// resolved is one generation's outcome: the complete state it restores
// to, or why it does not.
type resolved struct {
	st   *delaunay.BuildState
	meta Meta
	err  error
}

// join resolves a decoded image of generation g to the complete state
// it stands for. A root is that state already. A link is joined onto its
// base, which base(gen) resolves, after every bond the writer recorded is
// verified: generation order, run identity, watermark, and the prefix
// digests that tie the link to the base's CONTENT. Restore and Scrub
// differ only in how they resolve a base.
func join(g uint64, st *delaunay.BuildState, meta Meta, ch Chain, base func(uint64) (*resolved, error)) (*delaunay.BuildState, error) {
	if st.Base == (delaunay.Watermark{}) {
		return st, nil
	}
	if ch.BaseGen >= g {
		return nil, fmt.Errorf("%w: link %016x names base %016x (not older)", ErrDeltaChain, g, ch.BaseGen)
	}
	b, err := base(ch.BaseGen)
	if err != nil {
		return nil, fmt.Errorf("%w: base %016x: %w", ErrDeltaChain, ch.BaseGen, err)
	}
	if b.meta != meta {
		return nil, fmt.Errorf("%w: base %016x is run %+v, link is run %+v", ErrDeltaChain, ch.BaseGen, b.meta, meta)
	}
	if got := b.st.Watermark(); got != st.Base {
		return nil, fmt.Errorf("%w: base %016x watermark %+v, link recorded %+v", ErrDeltaChain, ch.BaseGen, got, st.Base)
	}
	if crcTris(0, b.st.Tris) != ch.CRCTris || crcFinal(0, b.st.Final) != ch.CRCFinal {
		return nil, fmt.Errorf("%w: base %016x content digest mismatch", ErrDeltaChain, ch.BaseGen)
	}
	out, err := delaunay.ApplyDelta(b.st, st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDeltaChain, err)
	}
	return out, nil
}

// resolver memoizes chain resolution across Restore's fallback walk: each
// generation is read, decoded, and (for links) joined to its base at
// most once, whether it is visited as a tip or as another link's base.
type resolver struct {
	dir   string
	cache map[uint64]*resolved
}

func (r *resolver) resolve(g uint64) (*resolved, error) {
	c, ok := r.cache[g]
	if !ok {
		c = &resolved{}
		c.st, c.meta, c.err = r.resolveFile(g)
		r.cache[g] = c
	}
	return c, c.err
}

func (r *resolver) resolveFile(g uint64) (*delaunay.BuildState, Meta, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, ckptName(g)))
	if err != nil {
		return nil, Meta{}, err
	}
	st, meta, ch, err := Decode(data)
	if err != nil {
		return nil, Meta{}, err
	}
	st, err = join(g, st, meta, ch, r.resolve)
	return st, meta, err
}

// Restore loads the newest fully valid checkpoint from dir, trying every
// on-disk generation newest-first: generation numbers only grow, so the
// file names alone order the history. A link generation is
// resolved through its recorded base chain with every link verified
// (decode, structural validation, watermark, run metadata, prefix
// digests); a tip whose chain is broken anywhere is skipped — falling
// back to the next generation, so a corrupt link never orphans the
// still-valid base below it. An image of another format version fails
// like a corrupt one (wrapping ErrBadVersion). Returns ErrNoCheckpoint if the directory
// holds no checkpoint files at all, and a joined error if every
// generation present is corrupt.
func Restore(dir string) (*delaunay.BuildState, Meta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, Meta{}, ErrNoCheckpoint
		}
		return nil, Meta{}, fmt.Errorf("checkpoint: scan dir: %w", err)
	}
	var gens []uint64
	for _, ent := range ents {
		if g, ok := parseGen(ent.Name()); ok {
			gens = append(gens, g)
		}
	}
	if len(gens) == 0 {
		return nil, Meta{}, ErrNoCheckpoint
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	res := &resolver{dir: dir, cache: make(map[uint64]*resolved, len(gens))}
	var lastErr error
	for _, g := range gens {
		c, err := res.resolve(g)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", ckptName(g), err)
			continue
		}
		return c.st, c.meta, nil
	}
	return nil, Meta{}, fmt.Errorf("checkpoint: all %d generations invalid: %w", len(gens), lastErr)
}

// DigestMesh is a CRC32-C over a mesh's full triangle log and work
// counters: two runs that took the same rounds and produced the same
// triangles in the same order — the determinism contract — digest
// equal. Used by the crash-recovery harness to compare a resumed build
// against an uninterrupted reference across processes.
func DigestMesh(m *delaunay.Mesh) uint32 {
	h := crc32.New(castagnoli)
	var buf []byte
	buf = le64(buf, uint64(m.N))
	buf = le64(buf, uint64(len(m.Triangles)))
	buf = le64(buf, uint64(m.Stats.InCircleTests))
	buf = le64(buf, uint64(m.Stats.TrianglesCreated))
	buf = le64(buf, uint64(int64(m.Stats.Rounds)))
	h.Write(buf)
	for _, t := range m.Triangles {
		buf = buf[:0]
		buf = le32(buf, uint32(t.V[0]))
		buf = le32(buf, uint32(t.V[1]))
		buf = le32(buf, uint32(t.V[2]))
		h.Write(buf)
	}
	return h.Sum32()
}
