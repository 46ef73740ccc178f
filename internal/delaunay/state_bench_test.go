package delaunay

import "testing"

// checkpointCadence mirrors cmd/ridtd's default -checkpoint-every. It
// bounds replay-on-restore to at most 16 rounds of lost work — a small
// fraction of a build, since rounds grow geometrically — while keeping
// capture, the only checkpoint work on the publisher's path, a small
// share of the build: on traced perfbench serve (n = 65536, 2-thread
// host) checkpoint.capture_ms is ~7% of build_s.
const checkpointCadence = 16

// BenchmarkCheckpointOverhead prices the publisher's synchronous
// checkpoint work over one cadence period of a finished 16Ki-point
// build: checkpointCadence republications of the completed view (its
// compacted index is reused, so each costs about a microsecond) and one
// CaptureState, the only checkpoint work on the publisher's path. One
// op is one period, so every op captures at any -benchtime. Encoding and
// file I/O happen on the saver goroutine and are priced separately
// (BenchmarkCheckpointWrite in internal/checkpoint). Budget: capture
// stays under 10% of a traced perfbench serve build
// (checkpoint.capture_ms / build_s). It is no longer a ratio to
// BenchmarkSnapshotPublish: once a round's publication costs
// microseconds, that ratio measures capture alone.
func BenchmarkCheckpointOverhead(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < checkpointCadence; j++ {
			lv.publish()
		}
		_ = lv.CaptureState()
	}
}
