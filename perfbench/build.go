package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

const (
	// buildN is the instance size of serve and recover.
	buildN = 1 << 16
	// ckptEvery is ridtd's default cadence: a capture every 16 committed
	// rounds. The writer keeps its default chain cap,
	// checkpoint.DefaultMaxChain deltas per full image.
	ckptEvery = 16
	// crashAfter is the generation after which recover crashes: one full
	// image and three deltas.
	crashAfter = 4
)

// serve builds a uniform unit-disk instance through delaunay.Live under
// the open-loop reader, offering a capture every ckptEvery rounds to a
// background saver that drops it when the previous save is still running.
func (b *bench) serve() error {
	var pts [inputs][]geom.Point
	if err := b.timeSetup(func(k int) error {
		pts[k] = geom.Dedup(geom.UniformDisk(rng.New(subSeed(b.seed, k)), buildN))
		b.rd.pool = queryPool(b.seed, -1.1, 1.1)
		return nil
	}); err != nil {
		return err
	}
	return b.runBuild("serve", pts)
}

// recover builds an exactly cocircular lattice, checkpointing
// synchronously every ckptEvery rounds, crashes after generation
// crashAfter, restores, resumes and finishes. The reader stops at the
// crash and starts again on the resumed view: the downtime shows in
// wall_s and recover_s, the latency of the queries served in query_*.
func (b *bench) recover() error {
	var pts [inputs][]geom.Point
	if err := b.timeSetup(func(k int) error {
		r := rng.New(subSeed(b.seed, k))
		p := geom.GridJitter(r, buildN, 0)
		rng.ShuffleSlice(r, p)
		pts[k] = geom.Dedup(p)
		b.rd.pool = queryPool(b.seed, -0.05, 1.05)
		return nil
	}); err != nil {
		return err
	}
	return b.runBuild("recover", pts)
}

// runBuild builds the reference mesh of every input with
// delaunay.ParTriangulate, which also warms the engine, then measures the
// build iterations and checks every iteration's mesh against its
// reference.
func (b *bench) runBuild(name string, pts [inputs][]geom.Point) error {
	// The reference builds are timed: each is the base of the Live
	// overhead (Σ Step − ParTriangulate on the same input).
	var want [inputs]uint32
	var refMs [inputs]float64
	warm := func() error {
		for k := range pts {
			runtime.GC()
			t0 := time.Now()
			ref := delaunay.ParTriangulate(pts[k])
			refMs[k] = time.Since(t0).Seconds() * 1e3
			want[k] = checkpoint.DigestMesh(ref)
			b.logf("input %d: points=%d ParTriangulate digest=%08x rounds=%d triangles=%d",
				k, len(pts[k]), want[k], ref.Stats.Rounds, len(ref.Triangles))
		}
		return nil
	}
	err := b.measure(warm, func(input int, traced bool) (sample, error) {
		s, mesh, err := b.buildIter(name, pts[input], traced)
		if err != nil {
			return s, err
		}
		d := checkpoint.DigestMesh(mesh)
		b.check(d == want[input], "%s input %d digest %08x, ParTriangulate %08x", name, input, d, want[input])
		cerr := delaunay.CheckConsistency(mesh)
		b.check(cerr == nil, "%s mesh consistency: %v", name, cerr)
		return s, nil
	})
	if err != nil {
		return err
	}
	b.addReaderChecks()
	for i := range b.samples {
		if s := &b.samples[i]; s.traced {
			s.vals["delaunay.partri_ms"] = refMs[s.input]
			s.vals["delaunay.live_overhead_ms"] = s.vals["delaunay.step_ms"] - refMs[s.input]
		}
	}
	b.layers["delaunay.step_p50_ms"] = quantile(b.stepMs, 0.5)
	b.layers["delaunay.step_p90_ms"] = quantile(b.stepMs, 0.9)
	return nil
}

// addReaderChecks counts the reader's answer checks into the run's.
func (b *bench) addReaderChecks() {
	b.attempted += b.rd.attempted
	b.failed += b.rd.failed
	if b.rd.failed > 0 {
		b.logf("CHECK FAILED: %d of %d reader answers wrong", b.rd.failed, b.rd.attempted)
	}
}

// savedGen is one committed checkpoint generation of an iteration.
type savedGen struct {
	st    *delaunay.BuildState // kept in traced iterations, for the encode split
	kind  checkpoint.Kind
	dur   time.Duration
	bytes int64
}

// saver commits captures on its own goroutine, as ridtd's saver does: the
// feed holds one capture, and offer drops a capture rather than wait.
type saver struct {
	w     *checkpoint.Writer
	meta  checkpoint.Meta
	tr    *tracer
	root  int32
	keep  bool
	ch    chan *delaunay.BuildState
	done  chan struct{}
	gens  []savedGen // owned by the saver goroutine until close returns
	err   error
	drops int
}

func startSaver(w *checkpoint.Writer, meta checkpoint.Meta, tr *tracer, root int32, keep bool) *saver {
	s := &saver{w: w, meta: meta, tr: tr, root: root, keep: keep,
		ch: make(chan *delaunay.BuildState, 1), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for st := range s.ch {
			if s.err != nil {
				continue
			}
			g, err := save(s.w, st, s.meta, s.tr, s.tr.beginAsync("checkpoint.save", s.root), s.keep)
			s.err = err
			s.gens = append(s.gens, g)
		}
	}()
	return s
}

func (s *saver) offer(st *delaunay.BuildState) {
	select {
	case s.ch <- st:
	default:
		s.drops++
	}
}

// close waits for the save in flight and stops the goroutine.
func (s *saver) close() error {
	close(s.ch)
	<-s.done
	return s.err
}

// save commits st through SaveAuto, ending span sp, and records the
// generation's kind, duration and committed size.
func save(w *checkpoint.Writer, st *delaunay.BuildState, meta checkpoint.Meta, tr *tracer, sp int32, keep bool) (savedGen, error) {
	t0 := time.Now()
	path, kind, err := w.SaveAuto(st, meta)
	g := savedGen{kind: kind, dur: time.Since(t0)}
	tr.end(sp)
	if err != nil {
		return g, fmt.Errorf("checkpoint save: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return g, fmt.Errorf("checkpoint size: %w", err)
	}
	g.bytes = fi.Size()
	if keep {
		g.st = st
	}
	return g, nil
}

// buildIter is one serve or recover iteration. The product time runs from
// NewLive to Finish; for recover it includes the crash recovery, which is
// also reported on its own.
func (b *bench) buildIter(name string, pts []geom.Point, traced bool) (sample, *delaunay.Mesh, error) {
	s := sample{vals: map[string]float64{}, root: -1}
	dir, err := os.MkdirTemp(b.work, "ckpt-")
	if err != nil {
		return s, nil, err
	}
	defer os.RemoveAll(dir)
	w, err := checkpoint.NewWriter(dir)
	if err != nil {
		return s, nil, err
	}
	meta := checkpoint.Meta{Seed: b.seed}
	tr := &b.tr
	syncSaves := name == "recover"

	cpu0 := cpuTime()
	t0 := time.Now()
	root := tr.begin(name, -1)
	s.root = root
	var sv *saver
	if !syncSaves {
		sv = startSaver(w, meta, tr, root, traced)
	}
	sp := tr.begin("delaunay.newlive", root)
	lv := delaunay.NewLive(pts)
	tr.end(sp)
	b.rd.begin(lv)
	fail := func(err error) (sample, *delaunay.Mesh, error) {
		b.rd.end()
		if sv != nil {
			sv.close()
		}
		return s, nil, err
	}

	var (
		c        parallel.Canceler
		gens     []savedGen
		recovery time.Duration
		crashed  bool
		last     = int32(-1)
	)
	for {
		sp = tr.begin("delaunay.step", root)
		more, err := lv.Step(&c)
		tr.end(sp)
		if err != nil {
			return fail(fmt.Errorf("step: %w", err))
		}
		if r := lv.View().Round(); r != last && r%ckptEvery == 0 {
			last = r
			sp = tr.begin("checkpoint.capture", root)
			st := lv.CaptureState()
			tr.end(sp)
			if !syncSaves {
				sv.offer(st)
			} else {
				g, err := save(w, st, meta, tr, tr.begin("checkpoint.save", root), traced)
				if err != nil {
					return fail(err)
				}
				gens = append(gens, g)
				if len(gens) == crashAfter && !crashed {
					// Crash: the build state in memory is gone, and nothing
					// is servable until the resumed build publishes.
					crashed = true
					b.rd.end()
					tc := time.Now()
					sp = tr.begin("checkpoint.restore", root)
					rst, rmeta, err := checkpoint.Restore(dir)
					tr.end(sp)
					if err != nil {
						return fail(fmt.Errorf("restore: %w", err))
					}
					sp = tr.begin("delaunay.resume", root)
					lv, err = delaunay.ResumeLive(rst)
					tr.end(sp)
					if err != nil {
						return fail(fmt.Errorf("resume: %w", err))
					}
					recovery = time.Since(tc)
					b.rd.begin(lv)
					b.check(rmeta == meta && rst.Round == r, "restored run %+v round %d, want %+v round %d", rmeta, rst.Round, meta, r)
					sp = tr.begin("checkpoint.reopen", root)
					w, err = checkpoint.NewWriter(dir)
					tr.end(sp)
					if err != nil {
						return fail(err)
					}
				}
			}
		}
		if !more {
			break
		}
	}
	sp = tr.begin("delaunay.finish", root)
	mesh := lv.Finish()
	tr.end(sp)
	s.wall = time.Since(t0)
	s.cpu = cpuTime() - cpu0
	tr.end(root)
	b.rd.end()
	if syncSaves {
		b.check(crashed, "recover: build finished after %d generations, before the crash point", len(gens))
		s.vals["recover_s"] = recovery.Seconds()
	} else {
		if err := sv.close(); err != nil {
			return s, nil, err
		}
		gens = sv.gens
		s.vals["checkpoint.saves_dropped"] = float64(sv.drops)
	}
	s.vals["build_s"] = (s.wall - recovery).Seconds()
	s.vals["delaunay.rounds"] = float64(mesh.Stats.Rounds)
	s.vals["delaunay.tris_created"] = float64(mesh.Stats.TrianglesCreated)
	s.vals["delaunay.incircle_tests"] = float64(mesh.Stats.InCircleTests)
	var saveMs []float64
	var bytes int64
	for _, g := range gens {
		saveMs = append(saveMs, g.dur.Seconds()*1e3)
		bytes += g.bytes
		if g.kind == checkpoint.KindDelta {
			s.vals["checkpoint.saves_delta"]++
		} else {
			s.vals["checkpoint.saves_full"]++
		}
	}
	s.vals["checkpoint.save_ms_p50"] = median(saveMs)
	s.vals["checkpoint.save_ms_max"] = quantile(saveMs, 1)
	s.vals["checkpoint.bytes"] = float64(bytes)

	if traced {
		// Span sums become <span>_ms, the saves included.
		durs := map[string][]float64{}
		for n, d := range tr.sums(root, durs) {
			s.vals[n+"_ms"] = d.Seconds() * 1e3
		}
		b.stepMs = append(b.stepMs, durs["delaunay.step"]...)
		enc, err := encodeTime(gens, meta)
		if err != nil {
			return s, nil, err
		}
		s.vals["checkpoint.encode_ms"] = enc.Seconds() * 1e3
		pred := lv.CaptureState().Pred
		s.vals["geom.incircle_calls"] = float64(pred.InCircleCalls)
		s.vals["geom.incircle_exact"] = float64(pred.InCircleExact)
		s.vals["geom.orient_calls"] = float64(pred.Orient2DCalls)
		s.vals["geom.orient_exact"] = float64(pred.Orient2DExact)
		if pred.InCircleCalls > 0 {
			s.vals["geom.exact_ratio"] = float64(pred.InCircleExact) / float64(pred.InCircleCalls)
		}
	}
	return s, mesh, nil
}

// encodeTime re-encodes an iteration's committed generations with
// checkpoint.Encode / EncodeDelta, after the build, so that save time
// splits into encoding and commit I/O.
func encodeTime(gens []savedGen, meta checkpoint.Meta) (time.Duration, error) {
	var total time.Duration
	var prev delaunay.Watermark
	for _, g := range gens {
		if g.st == nil {
			return 0, errors.New("encode split: capture not kept")
		}
		t0 := time.Now()
		if g.kind == checkpoint.KindDelta {
			d, err := g.st.DeltaSince(prev)
			if err != nil {
				return 0, fmt.Errorf("encode split: %w", err)
			}
			checkpoint.EncodeDelta(d, meta, checkpoint.Chain{})
		} else {
			checkpoint.Encode(g.st, meta)
		}
		total += time.Since(t0)
		prev = g.st.Watermark()
	}
	return total, nil
}
