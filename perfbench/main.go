// Command perfbench is the repository benchmark. It drives the public APIs
// of delaunay, checkpoint, experiments and the algorithm packages through
// one workload, times those calls from its own code, checks every output,
// and prints one JSON result as the last line of standard output.
//
//	perfbench --workload serve|recover|table1 --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it holds the per-layer metrics: the run alternates untraced and traced
// iterations, so the tracing overhead is measured in the same process, and
// the spans are written to the work directory at exit. README.md describes
// the workloads and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics, every one reported by every
// workload. wall_s is the workload's product: the build (serve), the build
// plus crash recovery (recover), or all Table 1 rows (table1).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_mem_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run. A layer a workload
// does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"build_s", "s"},
	{"recover_s", "s"},
	{"table1_s", "s"},
	{"delaunay.newlive_ms", "ms"},
	{"delaunay.step_ms", "ms"},
	{"delaunay.step_p50_ms", "ms"},
	{"delaunay.step_p90_ms", "ms"},
	{"delaunay.finish_ms", "ms"},
	{"delaunay.rounds", "count"},
	{"delaunay.tris_created", "count"},
	{"delaunay.incircle_tests", "count"},
	{"delaunay.partri_ms", "ms"},
	{"delaunay.live_overhead_ms", "ms"},
	{"geom.incircle_calls", "count"},
	{"geom.incircle_exact", "count"},
	{"geom.exact_ratio", "ratio"},
	{"geom.orient_calls", "count"},
	{"geom.orient_exact", "count"},
	{"view.locate_ns_p50", "ns"},
	{"view.locate_hit_ratio", "ratio"},
	{"view.epochs_seen", "count"},
	{"hashtable.snap_open_ns_p50", "ns"},
	{"hashtable.incident_ns_p50", "ns"},
	{"reader.queries", "count"},
	{"reader.p50_us", "us"},
	{"reader.p99_us", "us"},
	{"reader.lag_ms_max", "ms"},
	{"checkpoint.capture_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.save_ms_max", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.saves_full", "count"},
	{"checkpoint.saves_delta", "count"},
	{"checkpoint.saves_dropped", "count"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.restore_ms", "ms"},
	{"delaunay.resume_ms", "ms"},
	{"checkpoint.reopen_ms", "ms"},
	{"table1.sort_ms", "ms"},
	{"table1.dt_ms", "ms"},
	{"table1.lp_ms", "ms"},
	{"table1.cp_ms", "ms"},
	{"table1.seb_ms", "ms"},
	{"table1.lelists_w_ms", "ms"},
	{"table1.lelists_u_ms", "ms"},
	{"table1.scc_ms", "ms"},
	{"delaunay.seq_ms_p1", "ms"},
	{"delaunay.par_ms_p1", "ms"},
	{"delaunay.gks_ms_p1", "ms"},
	{"delaunay.par_vs_gks_p1", "ratio"},
	{"delaunay.seq_ms_p2", "ms"},
	{"delaunay.par_ms_p2", "ms"},
	{"delaunay.gks_ms_p2", "ms"},
	{"delaunay.par_vs_gks_p2", "ratio"},
	{"parallel.cpu_util", "ratio"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.sum_residual_ms", "ms"},
	{"trace.sum_residual_pct", "%"},
}

const (
	// inputs is how many distinct inputs a run derives from its seed.
	// Iteration k uses input k mod inputs, so a run's medians average
	// over inputs as well as over repetitions.
	inputs = 3
	// setupReps is how many times a run times its set-up, generating the
	// inputs in turn; setup_s is the median.
	setupReps = 2 * inputs
	// minIters is the fewest measured iterations a run makes, whatever
	// --seconds says; a traced run needs two traced and two untraced.
	minIters = 4
)

// subSeed is the seed of input k of a run.
func subSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9e3779b97f4a7c15 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	workload := fs.String("workload", "", "serve, recover or table1")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	runners := map[string]func(*bench) error{
		"serve":   (*bench).serve,
		"recover": (*bench).recover,
		"table1":  (*bench).table1,
	}
	runW, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(errOut, "perfbench: unknown workload %q (serve, recover, table1)\n", *workload)
		return 2
	}
	// One process with GOMAXPROCS = the host's hardware threads: the
	// parallel pool sizes itself from GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())

	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	work := filepath.Join(build, "perfbench-work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, work, out)
	b.logf("workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d %s/%s %s",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.GOOS, runtime.GOARCH, runtime.Version())
	if err := runW(b); err != nil {
		fmt.Fprintf(errOut, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.traced {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := b.tr.dump(path); err != nil {
			fmt.Fprintf(errOut, "perfbench: %v\n", err)
			return 1
		}
		b.logf("spans written to %s", path)
	}
	return b.report()
}

// bench is one run of one workload.
type bench struct {
	seed   uint64
	window time.Duration
	traced bool
	work   string // scratch directory for checkpoints and span dumps
	out    io.Writer

	tr      tracer
	rd      reader
	samples []sample

	attempted, failed int64
	setup             []float64          // seconds per set-up repetition
	stepMs            []float64          // every traced Step call, ms
	layers            map[string]float64 // run-level per-layer values
}

// sample is one measured iteration.
type sample struct {
	traced       bool
	input        int           // which of the run's inputs it used
	wall         time.Duration // the workload's product time (wall_s)
	cpu          time.Duration // process CPU time over the same interval
	p50us, p99us float64       // reader latency percentiles
	memMB        float64       // peak memory the runtime had in use
	root         int32         // the iteration's root span; -1 untraced
	vals         map[string]float64
}

func newBench(seed uint64, window time.Duration, traced bool, work string, out io.Writer) *bench {
	b := &bench{seed: seed, window: window, traced: traced, work: work, out: out, layers: map[string]float64{}}
	b.tr.epoch = time.Now()
	b.rd.lat = make([]float64, 0, 1<<20)
	return b
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "perfbench: "+format+"\n", args...)
}

// check counts one output check into attempted/failed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.logf("CHECK FAILED: "+format, args...)
	}
}

// timeSetup calls gen(k mod inputs) for setupReps repetitions, timing
// each; gen stores input k, so every input is in place afterwards.
func (b *bench) timeSetup(gen func(k int) error) error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := gen(i % inputs); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	return nil
}

// measure runs warm, then iterations until the window has passed and at
// least minIters were measured; iteration k runs on input k mod inputs. A
// traced run alternates untraced and traced iterations. Every iteration
// starts from a collected heap so that one iteration's garbage does not
// land in the next.
func (b *bench) measure(warm func() error, iter func(input int, traced bool) (sample, error)) error {
	if err := warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	for k := 0; k < minIters || time.Since(start) < b.window; k++ {
		traced := b.traced && k%2 == 1
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.tr.on = traced
		b.rd.reset(traced)
		mem := startMemPeak()
		s, err := iter(k%inputs, traced)
		memMB := mem.end()
		b.tr.on = false
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		s.traced, s.input, s.memMB = traced, k%inputs, memMB
		b.rd.iteration(&s)
		s.vals["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		s.vals["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		s.vals["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		s.vals["parallel.cpu_util"] = s.cpu.Seconds() / (s.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		b.samples = append(b.samples, s)
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memPeriod is how often memPeak samples the runtime's memory.
const memPeriod = 5 * time.Millisecond

// memPeak tracks the peak of the memory the Go runtime has in use (mapped,
// minus what is released to the OS or free for release) while it runs.
// Free heap retained from an earlier iteration is not counted.
// runtime/metrics reads do not stop the world, so sampling does not
// disturb the reader.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	go func() {
		defer close(m.done)
		tk := time.NewTicker(memPeriod)
		defer tk.Stop()
		for {
			metrics.Read(samples)
			used := samples[0].Value.Uint64() - samples[1].Value.Uint64() - samples[2].Value.Uint64()
			m.peak = max(m.peak, used)
			select {
			case <-m.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return m
}

// end stops sampling and returns the peak in MiB.
func (m *memPeak) end() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// collect returns f of every measured iteration with the given tracing
// state.
func (b *bench) collect(traced bool, f func(s *sample) float64) []float64 {
	var xs []float64
	for i := range b.samples {
		if b.samples[i].traced == traced {
			xs = append(xs, f(&b.samples[i]))
		}
	}
	return xs
}

func (b *bench) walls(traced bool) []float64 {
	return b.collect(traced, func(s *sample) float64 { return s.wall.Seconds() })
}

// sampleMedian is the median of one per-iteration value over the traced
// iterations (all iterations in an untraced run).
func (b *bench) sampleMedian(name string) float64 {
	return median(b.collect(b.traced, func(s *sample) float64 { return s.vals[name] }))
}

// report prints the human-readable summary and the JSON result line, and
// returns the exit code.
func (b *bench) report() int {
	e2e := map[string]float64{
		"setup_s":     median(b.setup),
		"wall_s":      median(b.walls(false)),
		"peak_mem_mb": median(b.collect(false, func(s *sample) float64 { return s.memMB })),
	}
	b.logf("iterations: %d untraced, %d traced over %d inputs; reader: %d latency samples at %d queries/s (open loop)",
		len(b.walls(false)), len(b.walls(true)), inputs, b.rd.samples, queryRate)
	for i, s := range b.samples {
		b.logf("  iteration %2d input %d traced=%-5v wall_s %.4f  p50_us %9.1f  p99_us %9.1f  mem_mb %.1f",
			i, s.input, s.traced, s.wall.Seconds(), s.p50us, s.p99us, s.memMB)
	}
	b.logf("setup_s per repetition: %v", b.setup)
	b.logf("wall_s, peak_mem_mb, reader.p99_us: median over untraced iterations; reader.p50_us: over every query of them")
	for _, m := range endToEnd {
		b.logf("  %-28s %14.6f %s", m.name, e2e[m.name], m.unit)
	}
	b.logf("  %-28s %14.6f us", "reader.p50_us", b.rd.pooledP50US())
	b.logf("  %-28s %14.6f us", "reader.p99_us", b.p99US())
	fail := 0.0
	if b.attempted > 0 {
		fail = float64(b.failed) / float64(b.attempted)
	}
	b.logf("  %-28s %14.6f (%d of %d checks failed)", "fail_ratio", fail, b.failed, b.attempted)

	metrics := map[string]any{}
	if b.traced {
		layer := b.layerMetrics()
		b.printSpans()
		for _, m := range perLayer {
			b.logf("  %-28s %14.6f %s", m.name, layer[m.name], m.unit)
			metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics assembles the per-layer values of a traced run: medians of
// the per-iteration values over traced iterations, the run-level values
// the workload recorded, the reader's layer timings, the trace overhead
// and the sum-check residual.
func (b *bench) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = b.sampleMedian(m.name)
	}
	for k, v := range b.layers {
		out[k] = v
	}
	for k, v := range b.rd.layerMetrics() {
		out[k] = v
	}
	out["reader.p99_us"] = b.p99US()
	un, tr := median(b.walls(false)), median(b.walls(true))
	out["trace.overhead_ms"] = (tr - un) * 1e3
	out["trace.overhead_pct"] = 100 * (tr - un) / un
	var res, pct []float64
	for _, s := range b.samples {
		if s.traced {
			r := b.tr.selfTime(s.root)
			res = append(res, r.Seconds()*1e3)
			pct = append(pct, 100*r.Seconds()/s.wall.Seconds())
		}
	}
	out["trace.sum_residual_ms"] = median(res)
	out["trace.sum_residual_pct"] = median(pct)
	return out
}

// p99US is the median over untraced iterations of each one's p99 query
// latency: one stalled iteration does not move it.
func (b *bench) p99US() float64 {
	return median(b.collect(false, func(s *sample) float64 { return s.p99us }))
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is the q-quantile of sorted s by linear interpolation
// between order statistics (0 for none).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
