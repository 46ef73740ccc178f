package seb

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// earliestViolator finds the smallest k in [lo, hi) with pts[k] outside d,
// scanning doubling windows so the expected work is proportional to the
// position of the violator rather than the whole range. Returns -1 if
// none. Each probed window is charged in full to tests (the PRAM work),
// so the count is deterministic even though the pooled reservation may
// prune containment calls that cannot win.
func earliestViolator(pts []geom.Point, d geom.Disk, lo, hi int, tests *atomic.Int64) int {
	idx, ok := parallel.ScanMinIndexWindows(lo, hi, 4,
		func(width int) { tests.Add(int64(width)) },
		func(k int) bool { return !d.Contains(pts[k]) })
	if !ok {
		return -1
	}
	return idx
}

// parUpdate1 is update1 with both scan levels replaced by parallel
// earliest-violator searches; it performs exactly the same sequence of disk
// updates as the sequential version, so the resulting disk is bitwise
// identical.
func parUpdate1(pts []geom.Point, i int, tests *atomic.Int64, update2Calls *int64) geom.Disk {
	d := geom.DiskFrom2(pts[0], pts[i])
	j := 1
	for j < i {
		v := earliestViolator(pts, d, j, i, tests)
		if v < 0 {
			break
		}
		*update2Calls++
		d = parUpdate2(pts, i, v, tests)
		j = v + 1
	}
	return d
}

func parUpdate2(pts []geom.Point, i, j int, tests *atomic.Int64) geom.Disk {
	d := geom.DiskFrom2(pts[i], pts[j])
	k := 0
	for k < j {
		v := earliestViolator(pts, d, k, j, tests)
		if v < 0 {
			break
		}
		d = geom.DiskFrom3(pts[i], pts[j], pts[v])
		k = v + 1
	}
	return d
}

// ParIncremental runs the Type 2 parallel algorithm (Theorem 5.3): the
// special check depends only on the current disk, so the Algorithm 1
// reserve/commit schedule applies directly; special iterations run the
// parallel Update1. The disk is written only by RunFirst and RunSpecial —
// regular commits are no-ops — so the hooks keep core.Type2Hooks'
// verdict-stability contract and the runner probes the live prefix in
// batched doubling windows. The returned
// disk is identical to the sequential one.
func ParIncremental(pts []geom.Point) (geom.Disk, Stats) {
	n := len(pts)
	if n < 2 {
		panic("seb: need at least two points")
	}
	var st Stats
	var tests atomic.Int64
	var update2Calls int64
	var d geom.Disk

	hooks := core.Type2Hooks{
		RunFirst: func() {
			// Iterations are points; by the time iteration 1 is reached the
			// disk of the first two points must exist. Treat iteration 0 as
			// initialization and iteration 1 as always-regular (it is on the
			// initial disk's boundary by construction).
			d = geom.DiskFrom2(pts[0], pts[1])
		},
		IsSpecial: func(k int) bool {
			if k < 2 {
				return false
			}
			return !d.Contains(pts[k])
		},
		RunRegular: func(lo, hi int) {
			// Points inside the disk require no state change.
		},
		RunSpecial: func(k int) {
			d = parUpdate1(pts, k, &tests, &update2Calls)
		},
	}
	t2 := core.RunType2(n, hooks)
	st.Special = t2.Special - 1 // discount the RunFirst pseudo-special
	st.Rounds = t2.Rounds
	st.SubRounds = t2.SubRounds
	st.MaxProbe = t2.MaxProbe
	st.MaxRegular = t2.MaxRegular
	// Probe work is charged from the schedule's deterministic window
	// accounting, not per containment call: the pooled reservation may
	// prune calls that cannot win, and a scheduling-dependent counter
	// would break the experiments' given-the-seed determinism.
	st.InDiskTests = tests.Load() + t2.Checks
	st.Update2Calls = update2Calls
	return d, st
}
