package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rng"
)

const (
	// queryRate is the open-loop reader's fixed arrival rate. At this rate
	// the reader uses a few percent of one core, so its latency measures
	// how long the build or the batch rows make a query wait.
	queryRate   = 100_000
	queryPeriod = time.Second / queryRate
	poolSize    = 1 << 16
)

// reader is the open-loop query generator and client: query i falls due at
// start + i·queryPeriod whether or not earlier ones were answered, and its
// latency runs from its due time to its answer, so a stall is charged to
// every query that waited behind it. A query is ViewEpoch + Locate and,
// on a hit, Faces + Incident + Close.
type reader struct {
	pool []geom.Point
	next int

	// Set by reset and begin, before the goroutine starts.
	traced bool
	lv     *delaunay.Live
	start  time.Time
	stopAt atomic.Int64 // due offset in ns at which to stop
	done   chan struct{}

	// Written by the reader goroutine; read after end returns.
	lat                    []float64 // µs from due time to answer, this iteration
	untraced               []float64 // lat of every untraced measured iteration
	locate, snap, incident []float64 // ns per call, traced iterations
	lagMax                 time.Duration
	queries, hits, epochs  int64 // this iteration
	attempted, failed      int64 // whole run
	samples                int64 // latencies recorded over the run
}

// queryPool draws the reader's query points uniformly from a square.
func queryPool(seed uint64, lo, hi float64) []geom.Point {
	r := rng.New(seed ^ 0x5eed_0f_9e_2ead)
	pool := make([]geom.Point, poolSize)
	for i := range pool {
		pool[i] = geom.Point{X: lo + (hi-lo)*r.Float64(), Y: lo + (hi-lo)*r.Float64()}
	}
	return pool
}

// reset starts a new iteration's latencies and counts.
func (r *reader) reset(traced bool) {
	r.traced = traced
	r.lat = r.lat[:0]
	r.queries, r.hits, r.epochs = 0, 0, 0
}

// begin starts the reader goroutine against lv with a fresh schedule.
func (r *reader) begin(lv *delaunay.Live) {
	r.lv = lv
	r.stopAt.Store(math.MaxInt64)
	r.done = make(chan struct{})
	r.start = time.Now()
	go r.loop()
}

// end answers every query already due, stops the goroutine and waits for it.
func (r *reader) end() {
	r.stopAt.Store(int64(time.Since(r.start)))
	<-r.done
	r.lv = nil
}

func (r *reader) loop() {
	defer close(r.done)
	lv := r.lv
	var lastEpoch uint64
	for i := int64(0); ; {
		due := time.Duration(i) * queryPeriod
		if int64(due) >= r.stopAt.Load() {
			return
		}
		now := time.Since(r.start)
		if now < due {
			time.Sleep(due - now)
			continue
		}
		q := r.pool[r.next]
		r.next = (r.next + 1) % len(r.pool)
		if lag := now - due; lag > r.lagMax && r.traced {
			r.lagMax = lag
		}

		var (
			v      *delaunay.MeshView
			ep     uint64
			id     int32
			hit    bool
			t0, t1 int32
			fok    bool
		)
		if r.traced {
			a := time.Now()
			v, ep = lv.ViewEpoch()
			id, hit = v.Locate(q)
			bt := time.Now()
			r.locate = append(r.locate, float64(bt.Sub(a)))
			if hit {
				fs := lv.Faces()
				c := time.Now()
				cs := v.Corners(id)
				t0, t1, fok = fs.Incident(cs[0], cs[1])
				d := time.Now()
				fs.Close()
				e := time.Now()
				r.snap = append(r.snap, float64(c.Sub(bt)+e.Sub(d)))
				r.incident = append(r.incident, float64(d.Sub(c)))
			}
		} else {
			v, ep = lv.ViewEpoch()
			id, hit = v.Locate(q)
			if hit {
				fs := lv.Faces()
				cs := v.Corners(id)
				t0, t1, fok = fs.Incident(cs[0], cs[1])
				fs.Close()
			}
		}
		r.lat = append(r.lat, float64(time.Since(r.start)-due)/1e3)

		// Checked outside the timed interval: a hit's triangle contains
		// the query point and is incident to its own first edge in the
		// face map. A miss is a legal answer.
		r.attempted++
		if hit && !(fok && (t0 == id || t1 == id) && contains(v, id, q)) {
			r.failed++
		}
		r.queries++
		if hit {
			r.hits++
		}
		if ep != lastEpoch {
			r.epochs++
			lastEpoch = ep
		}
		i++
	}
}

// contains reports whether q lies in the closed triangle id of v.
func contains(v *delaunay.MeshView, id int32, q geom.Point) bool {
	c := v.Corners(id)
	a, b, cc := v.Point(c[0]), v.Point(c[1]), v.Point(c[2])
	o := geom.Orient2D(a, b, cc)
	return o != 0 &&
		geom.Orient2D(a, b, q)*o >= 0 &&
		geom.Orient2D(b, cc, q)*o >= 0 &&
		geom.Orient2D(cc, a, q)*o >= 0
}

// iteration records this iteration's latency percentiles and reader
// counts into s.
func (r *reader) iteration(s *sample) {
	if !r.traced {
		r.untraced = append(r.untraced, r.lat...)
	}
	sort.Float64s(r.lat)
	s.p50us = quantileSorted(r.lat, 0.50)
	s.p99us = quantileSorted(r.lat, 0.99)
	r.samples += int64(len(r.lat))
	s.vals["reader.queries"] = float64(r.queries)
	s.vals["view.epochs_seen"] = float64(r.epochs)
	if r.queries > 0 {
		s.vals["view.locate_hit_ratio"] = float64(r.hits) / float64(r.queries)
	}
}

// pooledP50US is the median in µs of every query latency recorded in
// untraced iterations.
func (r *reader) pooledP50US() float64 {
	sort.Float64s(r.untraced)
	return quantileSorted(r.untraced, 0.5)
}

// layerMetrics reports the read path's per-call timings over all traced
// iterations, and the median latency of the untraced ones.
func (r *reader) layerMetrics() map[string]float64 {
	return map[string]float64{
		"view.locate_ns_p50":         median(r.locate),
		"hashtable.snap_open_ns_p50": median(r.snap),
		"hashtable.incident_ns_p50":  median(r.incident),
		"reader.lag_ms_max":          r.lagMax.Seconds() * 1e3,
		"reader.p50_us":              r.pooledP50US(),
	}
}
