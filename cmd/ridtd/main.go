// Command ridtd is the long-lived serve-while-building daemon: it builds
// Delaunay triangulations round by round with the parallel engine while
// unbounded reader goroutines run point-location, containment, and
// edge-adjacency queries against the epoch-published snapshots
// (delaunay.Live views and face-map snapshots) the whole time.
//
// Usage:
//
//	ridtd [-n N] [-seed S] [-readers R] [-builds B] [-report D]
//	      [-procs P] [-timeout D]
//	      [-checkpoint DIR] [-checkpoint-every N]
//	      [-restore] [-scrub] [-scrub-every D]
//
// Each build triangulates a fresh n-point instance to completion; with
// -builds 0 the daemon rebuilds forever (a serving loop), until -timeout
// elapses or an interrupt (SIGINT or SIGTERM) arrives. Shutdown matches
// ridt's exit-code contract: 0 on a completed run, 2 on flag errors, 3
// when canceled by the deadline or a signal (the stats printed are a
// prefix of the run).
//
// With -checkpoint the daemon commits a crash-safe checkpoint of the
// build every -checkpoint-every committed rounds, from the published
// snapshot, on a background goroutine — the build never stalls for
// durability. Checkpoints are incremental: a root generation holds the
// whole build, and up to checkpoint.DefaultMaxChain link generations
// after it each hold only the log suffix past the previous generation
// plus the mutable remainder. After a crash (or SIGKILL), -restore
// resumes the interrupted build from the newest valid generation —
// resolving links through their base chain and falling back past any
// broken link; by the engine's determinism contract the resumed build
// finishes byte-identical to an uninterrupted one, which the per-build
// "digest=" line makes checkable across processes. A directory written
// by an older checkpoint format version does not restore (exit 2).
//
// -scrub-every D runs the self-healing scrubber in the background every
// D: each pass re-reads every generation with a full decode+validate,
// renames provably corrupt files to ckpt-<gen>.bad (quarantine, never
// silent deletion), promotes the newest restorable state to a fresh root
// when the chain head was lost, and rewrites the advisory MANIFEST.
// -scrub runs exactly one such pass and exits (the CI/cron shape);
// outcomes are counted in the periodic report and the final summary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// readerStats is one reader goroutine's query counters: written only by
// its reader, loaded atomically by progress lines mid-run and summed
// after the reader exits.
type readerStats struct {
	queries atomic.Int64 // Locate calls issued
	hits    atomic.Int64 // Locate calls that found a final triangle
	faceQs  atomic.Int64 // face-map Incident queries
	views   atomic.Int64 // distinct view epochs observed
	_       [24]byte     // pad to a cache line against false sharing
}

// run is the testable driver body, mirroring ridt's contract: output to
// out/errOut, returned exit code, injectable signal feed.
func run(args []string, out, errOut io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("ridtd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	n := fs.Int("n", 4096, "points per build")
	seed := fs.Uint64("seed", 1, "base random seed (build i uses seed+i)")
	readers := fs.Int("readers", 4, "concurrent reader goroutines")
	builds := fs.Int("builds", 1, "builds to run (0 = rebuild until canceled)")
	report := fs.Duration("report", time.Second, "progress-line interval (0 = none)")
	procs := fs.Int("procs", 0, "worker count (sets GOMAXPROCS; 0 keeps the environment's value)")
	timeout := fs.Duration("timeout", 0, "cancel the run after this duration and exit 3 (0 = no deadline)")
	ckptDir := fs.String("checkpoint", "", "directory for crash-safe build checkpoints (empty = disabled)")
	ckptEvery := fs.Int("checkpoint-every", 16, "committed rounds between checkpoints")
	restore := fs.Bool("restore", false, "resume the interrupted build from the newest valid checkpoint in -checkpoint")
	scrubOnce := fs.Bool("scrub", false, "run one scrub pass over -checkpoint (verify, quarantine, repair) and exit")
	scrubEvery := fs.Duration("scrub-every", 0, "background scrub-pass interval (0 = no scrubbing)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "ridtd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *n < 0 || *readers < 0 || *builds < 0 {
		fmt.Fprintln(errOut, "ridtd: -n, -readers, and -builds must be non-negative")
		return 2
	}
	if *ckptEvery < 1 {
		fmt.Fprintln(errOut, "ridtd: -checkpoint-every must be at least 1")
		return 2
	}
	if *restore && *ckptDir == "" {
		fmt.Fprintln(errOut, "ridtd: -restore requires -checkpoint")
		return 2
	}
	if (*scrubOnce || *scrubEvery > 0) && *ckptDir == "" {
		fmt.Fprintln(errOut, "ridtd: -scrub and -scrub-every require -checkpoint")
		return 2
	}
	if *scrubEvery < 0 {
		fmt.Fprintln(errOut, "ridtd: -scrub-every must be non-negative")
		return 2
	}
	if *scrubOnce {
		// One-shot maintenance mode: scrub the directory and exit without
		// serving. Exit 0 even when files were quarantined — the PASS
		// succeeded; what it found is in the output for the caller.
		w, err := checkpoint.NewWriter(*ckptDir)
		if err != nil {
			fmt.Fprintf(errOut, "ridtd: %v\n", err)
			return 2
		}
		res, err := w.Scrub()
		if err != nil {
			fmt.Fprintf(errOut, "ridtd: scrub: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "ridtd: scrub %s\n", res)
		if res.NewestOK {
			fmt.Fprintf(out, "ridtd: scrub newest-restorable=%016x\n", res.Newest)
		}
		return 0
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	var canceler parallel.Canceler
	if *timeout > 0 {
		tm := time.AfterFunc(*timeout, canceler.Cancel)
		defer tm.Stop()
	}
	if sigs == nil {
		ch := make(chan os.Signal, 1)
		// SIGTERM is the standard service-manager stop signal; treating it
		// like an interrupt gives the daemon the same clean prefix-shutdown
		// under systemd/container stops as under a ^C.
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(ch)
		sigs = ch
	}
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-sigs:
			canceler.Cancel()
		case <-watcherDone:
		}
	}()

	var saver *ckptSaver
	var scr *scrubber
	if *ckptDir != "" {
		w, err := checkpoint.NewWriter(*ckptDir)
		if err != nil {
			fmt.Fprintf(errOut, "ridtd: %v\n", err)
			return 2
		}
		saver = newCkptSaver(w, errOut)
		defer saver.close()
		if *scrubEvery > 0 {
			scr = startScrubber(w, *scrubEvery, out, errOut)
			defer scr.close()
		}
	}
	startBuild := 0
	var resumed *delaunay.Live
	if *restore {
		st, meta, err := checkpoint.Restore(*ckptDir)
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			fmt.Fprintln(out, "ridtd: no checkpoint to restore; starting fresh")
		case err != nil:
			fmt.Fprintf(errOut, "ridtd: restore: %v\n", err)
			return 2
		default:
			lv, err := delaunay.ResumeLive(st)
			if err != nil {
				fmt.Fprintf(errOut, "ridtd: restore: %v\n", err)
				return 2
			}
			resumed = lv
			startBuild = int(meta.Build)
			fmt.Fprintf(out, "ridtd: restored build=%d seed=%d round=%d tris=%d\n",
				meta.Build, meta.Seed, st.Round, len(st.Tris))
		}
	}

	fmt.Fprintf(out, "ridtd: GOMAXPROCS=%d n=%d readers=%d builds=%d seed=%d\n",
		runtime.GOMAXPROCS(0), *n, *readers, *builds, *seed)

	var totQ, totHit, totFace, totViews, totRounds, totTris int64
	completed := 0
	for b := startBuild; *builds == 0 || b < *builds+startBuild; b++ {
		if canceler.Canceled() {
			break
		}
		bseed := *seed + uint64(b)
		lv := resumed
		resumed = nil
		if lv == nil {
			lv = delaunay.NewLive(geom.Dedup(geom.UniformDisk(rng.New(bseed), *n)))
		}
		q, hit, faceQ, views, rounds, tris, done := serveBuild(out, lv, bseed, b, *readers, *report, *ckptEvery, saver, scr, &canceler)
		totQ += q
		totHit += hit
		totFace += faceQ
		totViews += views
		totRounds += rounds
		totTris += tris
		if !done {
			break
		}
		completed++
	}

	fmt.Fprintf(out, "ridtd: builds=%d rounds=%d tris=%d queries=%d hits=%d faceqs=%d views=%d\n",
		completed, totRounds, totTris, totQ, totHit, totFace, totViews)
	if saver != nil {
		fmt.Fprintf(out, "ridtd: ckpt saved=%d delta=%d dropped=%d failed=%d\n",
			saver.saved.Load(), saver.savedDelta.Load(), saver.dropped.Load(), saver.failed.Load())
	}
	if scr != nil {
		fmt.Fprintf(out, "ridtd: scrub passes=%d verified=%d skipped=%d quarantined=%d repaired=%d\n",
			scr.passes.Load(), scr.verified.Load(), scr.skipped.Load(), scr.quarantined.Load(), scr.repaired.Load())
	}
	if canceler.Canceled() {
		fmt.Fprintln(errOut, "ridtd: run canceled (deadline or interrupt); stats above are a prefix of the full run")
		return 3
	}
	return 0
}

// ckptSaver commits checkpoints on a dedicated goroutine so the build's
// publisher never blocks on disk. The feed has capacity 1 and offers
// drop rather than wait: a checkpoint is a sample of the monotone build
// state, so when the saver is still fsyncing the previous one, skipping
// a boundary costs only restore granularity, never correctness. Save
// errors (including injected ones) and panics are contained here and
// logged — durability is best-effort, the build is not.
type ckptSaver struct {
	ch         chan ckptReq
	done       chan struct{}
	errOut     io.Writer
	saved      atomic.Int64 // committed generations (roots + links)
	savedDelta atomic.Int64 // of those, links
	dropped    atomic.Int64 // captures skipped because the saver was busy
	failed     atomic.Int64 // save attempts that errored or panicked
}

type ckptReq struct {
	st   *delaunay.BuildState
	meta checkpoint.Meta
}

func newCkptSaver(w *checkpoint.Writer, errOut io.Writer) *ckptSaver {
	s := &ckptSaver{ch: make(chan ckptReq, 1), done: make(chan struct{}), errOut: errOut}
	go func() {
		defer close(s.done)
		for req := range s.ch {
			s.save(w, req)
		}
	}()
	return s
}

func (s *ckptSaver) save(w *checkpoint.Writer, req ckptReq) {
	defer func() {
		if r := recover(); r != nil {
			s.failed.Add(1)
			fmt.Fprintf(s.errOut, "ridtd: checkpoint save panicked: %v\n", r)
		}
	}()
	_, kind, err := w.SaveAuto(req.st, req.meta)
	if err != nil {
		s.failed.Add(1)
		fmt.Fprintf(s.errOut, "ridtd: checkpoint save failed: %v\n", err)
		return
	}
	s.saved.Add(1)
	if kind == checkpoint.KindDelta {
		s.savedDelta.Add(1)
	}
}

// offer hands a captured state to the saver without blocking.
func (s *ckptSaver) offer(st *delaunay.BuildState, meta checkpoint.Meta) {
	select {
	case s.ch <- ckptReq{st: st, meta: meta}:
	default:
		s.dropped.Add(1)
	}
}

func (s *ckptSaver) close() {
	close(s.ch)
	<-s.done
}

// scrubber runs periodic self-healing passes over the checkpoint
// directory on its own goroutine. It shares the Writer (and therefore
// the writer's lock) with the saver, so a pass never races a commit; a
// pass that errors or panics is logged and counted, never fatal — the
// scrubber is maintenance, the build is the product.
type scrubber struct {
	w      *checkpoint.Writer
	out    io.Writer
	errOut io.Writer
	stop   chan struct{}
	done   chan struct{}

	passes      atomic.Int64
	verified    atomic.Int64
	skipped     atomic.Int64
	quarantined atomic.Int64
	repaired    atomic.Int64
}

func startScrubber(w *checkpoint.Writer, every time.Duration, out, errOut io.Writer) *scrubber {
	s := &scrubber{w: w, out: out, errOut: errOut, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
				s.runPass()
			}
		}
	}()
	return s
}

func (s *scrubber) runPass() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(s.errOut, "ridtd: scrub pass panicked: %v\n", r)
		}
	}()
	s.passes.Add(1)
	res, err := s.w.Scrub()
	if err != nil {
		fmt.Fprintf(s.errOut, "ridtd: scrub pass failed: %v\n", err)
		return
	}
	s.verified.Add(int64(res.Verified))
	s.skipped.Add(int64(res.Skipped))
	s.quarantined.Add(int64(res.Quarantined))
	s.repaired.Add(int64(res.Repaired))
	// Quiet when healthy: a pass earns a log line only when it acted.
	if res.Quarantined > 0 || res.Repaired > 0 {
		fmt.Fprintf(s.out, "ridtd: scrub %s\n", res)
	}
}

func (s *scrubber) close() {
	close(s.stop)
	<-s.done
}

// serveBuild triangulates one instance to completion while readers
// hammer the published views, then reports per-build stats. done=false
// means the build was cut short by cancellation. A non-nil saver gets a
// state capture every ckptEvery committed rounds, taken at the quiesced
// boundary between Step calls (the same point the epoch advances).
func serveBuild(out io.Writer, lv *delaunay.Live, seed uint64, build, readers int, report time.Duration,
	ckptEvery int, saver *ckptSaver, scr *scrubber, c *parallel.Canceler) (q, hit, faceQ, views, rounds, tris int64, done bool) {
	stats := make([]readerStats, readers)
	var wg sync.WaitGroup
	stop := &parallel.Canceler{} // readers drain on build completion OR external cancel
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(rs *readerStats, rseed uint64) {
			defer wg.Done()
			reader(lv, rs, rseed, stop)
		}(&stats[r], seed^(uint64(r)*0x9E3779B97F4A7C15+1))
	}

	var reportC <-chan time.Time
	if report > 0 {
		tk := time.NewTicker(report)
		defer tk.Stop()
		reportC = tk.C
	}

	done = true
	lastCkpt := int32(-1)
	for {
		more, err := lv.Step(c)
		if err != nil {
			done = false // canceled: the engine rolled the round back
			break
		}
		if saver != nil {
			if r := lv.View().Round(); r != lastCkpt && int(r)%ckptEvery == 0 {
				lastCkpt = r
				saver.offer(lv.CaptureState(), checkpoint.Meta{Seed: seed, Build: uint64(build)})
			}
		}
		select {
		case <-reportC:
			v := lv.View()
			var rq, rh int64
			for i := range stats {
				rq += stats[i].queries.Load()
				rh += stats[i].hits.Load()
			}
			line := fmt.Sprintf("ridtd: build=%d round=%d tris=%d final=%d queries=%d hits=%d",
				build, v.Round(), v.NumTriangles(), v.NumFinal(), rq, rh)
			if saver != nil {
				line += fmt.Sprintf(" saved=%d dropped=%d", saver.saved.Load(), saver.dropped.Load())
			}
			if scr != nil {
				line += fmt.Sprintf(" scrubbed=%d", scr.verified.Load())
			}
			fmt.Fprintln(out, line)
		default:
		}
		if !more {
			break
		}
	}
	stop.Cancel()
	wg.Wait()

	v := lv.View()
	rounds, tris = int64(v.Round()), int64(v.NumTriangles())
	for i := range stats {
		q += stats[i].queries.Load()
		hit += stats[i].hits.Load()
		faceQ += stats[i].faceQs.Load()
		views += stats[i].views.Load()
	}
	fmt.Fprintf(out, "ridtd: build=%d done=%v rounds=%d tris=%d final=%d queries=%d hits=%d faceqs=%d views=%d\n",
		build, done, rounds, tris, v.NumFinal(), q, hit, faceQ, views)
	if done {
		// The digest commits this process to a specific triangle log: a
		// resumed-after-crash build must print the same value as the
		// uninterrupted reference run (the CI crash-recovery job diffs them).
		fmt.Fprintf(out, "ridtd: build=%d digest=%08x\n", build, checkpoint.DigestMesh(lv.Finish()))
	}
	return q, hit, faceQ, views, rounds, tris, done
}

// reader is one query goroutine: it re-reads the latest published view
// each batch, locates random points in it, and probes each located
// triangle's first edge in a face-map snapshot taken alongside the view,
// until stopped. Both paths are the zero-alloc snapshot reads the
// benchmarks pin; the smoke tests run readers in-process.
func reader(lv *delaunay.Live, rs *readerStats, seed uint64, stop *parallel.Canceler) {
	r := rng.New(seed)
	var lastEpoch uint64
	for !stop.Canceled() {
		v, ep := lv.ViewEpoch()
		if ep != lastEpoch {
			rs.views.Add(1)
			lastEpoch = ep
		}
		fsnap := lv.Faces()
		for i := 0; i < 64 && !stop.Canceled(); i++ {
			// Queries over the slightly padded unit disk: most hit the
			// finalized region once it grows, some probe the frontier.
			x := 2.2*r.Float64() - 1.1
			y := 2.2*r.Float64() - 1.1
			id, ok := v.Locate(geom.Point{X: x, Y: y})
			rs.queries.Add(1)
			if ok {
				rs.hits.Add(1)
				cs := v.Corners(id)
				if _, _, ok := fsnap.Incident(cs[0], cs[1]); ok {
					rs.faceQs.Add(1)
				}
			}
		}
		fsnap.Close()
	}
}
