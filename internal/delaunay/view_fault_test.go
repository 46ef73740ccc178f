//go:build ridtfault

package delaunay

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/rng"
)

// Publication-protocol fault stress (ridtfault build): the EpochPublish
// site fires in Live.Step between a round's commit and its publication,
// so an injected death models the publisher dying with a committed round
// unpublished. The committed state is durable, so a retried Step's
// publication covers every round since the last published one: readers
// observe round gaps, never an inconsistent view.

// liveStepFaulted runs one Live.Step, translating an injected death into
// a retry signal; any other panic is a real bug.
func liveStepFaulted(lv *Live) (more, died bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.Injected); !ok {
				panic(r)
			}
			more, died = true, true
		}
	}()
	m, _ := lv.Step(nil)
	return m, false
}

// TestLiveSurvivesPublishDeaths kills the publisher at the publication
// boundary over and over while concurrent readers verify every view they
// observe against the fault-free reference run, and checks the final
// mesh is the exact deterministic one.
func TestLiveSurvivesPublishDeaths(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(53), 1200))
	want := ParTriangulate(pts)
	rows := referenceRun(t, pts)

	for _, seed := range []uint64{3, 71} {
		if err := fault.Enable(fault.Config{
			Seed:      seed,
			PanicRate: 0.25,
			DelayRate: 0.2,
			MaxPanics: -1,
			SiteMask:  fault.MaskOf(fault.EpochPublish),
		}); err != nil {
			t.Fatal(err)
		}
		lv := NewLive(pts)
		var stop atomic.Bool
		var wg sync.WaitGroup
		fail := make(chan string, 1)
		report := func(msg string) {
			select {
			case fail <- msg:
			default:
			}
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastEp uint64
				var lastRound int32 = -1
				for !stop.Load() {
					v, ep := lv.ViewEpoch()
					if ep < lastEp || v.Round() < lastRound {
						report("publication went backwards under faults")
						return
					}
					lastEp, lastRound = ep, v.Round()
					row, ok := rows[v.Round()]
					if !ok {
						report("published a round the reference run never committed")
						return
					}
					if v.NumTriangles() != row.tris || v.NumFinal() != row.nFinal || finalSum(v) != row.sum {
						report("view diverges from committed reference prefix under faults")
						return
					}
				}
			}()
		}
		deaths := 0
		for {
			more, died := liveStepFaulted(lv)
			if died {
				deaths++
				if deaths > 10000 {
					t.Fatal("fault schedule never lets the run finish")
				}
				continue
			}
			if !more {
				break
			}
		}
		stop.Store(true)
		wg.Wait()
		fault.Disable()
		select {
		case msg := <-fail:
			t.Fatalf("seed %d: %s", seed, msg)
		default:
		}
		if deaths == 0 {
			t.Fatalf("seed %d: no deaths injected — raise the rate", seed)
		}
		t.Logf("seed %d: survived %d publisher deaths", seed, deaths)
		if !lv.View().Done() {
			t.Fatalf("seed %d: last view not Done", seed)
		}
		got := lv.Finish()
		meshEqual(t, "after publish deaths", got, want)
		if err := CheckDelaunay(got); err != nil {
			t.Fatalf("seed %d: mesh invalid after %d deaths: %v", seed, deaths, err)
		}
	}
}
