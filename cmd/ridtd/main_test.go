package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunCompletes drives a small serve-while-building run to completion
// and checks the exit code and the summary line.
func TestRunCompletes(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "300", "-builds", "2", "-readers", "2", "-seed", "7", "-report", "0"},
		&out, &errOut, nil)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "ridtd: builds=2 ") {
		t.Fatalf("summary line missing or wrong build count:\n%s", s)
	}
	if !strings.Contains(s, "build=1 done=true") {
		t.Fatalf("second build did not complete:\n%s", s)
	}
	if errOut.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
}

// TestRunNoReaders exercises the writer-only path (readers=0) and n=0
// (a build whose initial view is already final).
func TestRunNoReaders(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-n", "0", "-builds", "1", "-readers", "0", "-report", "0"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "queries=0") {
		t.Fatalf("expected zero queries with no readers:\n%s", out.String())
	}
}

// TestRunReportLines checks the periodic progress line fires on a run
// long enough to tick.
func TestRunReportLines(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "3000", "-builds", "1", "-readers", "1", "-report", "1ms"}, &out, &errOut, nil)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "round=") {
		t.Fatalf("no progress line in output:\n%s", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "notanint"},
		{"-bogus"},
		{"positional"},
		{"-n", "-1"},
		{"-readers", "-2"},
		{"-builds", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, nil); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-timeout") {
		t.Fatalf("usage text missing flags:\n%s", errOut.String())
	}
}

// TestRunTimeout runs an endless serving loop (-builds 0) under a short
// deadline and expects the canceled exit code with a prefix note.
func TestRunTimeout(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "2000", "-builds", "0", "-readers", "2", "-report", "0", "-timeout", "50ms"},
		&out, &errOut, nil)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "canceled") {
		t.Fatalf("missing cancellation note on stderr: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "ridtd: builds=") {
		t.Fatalf("summary line should still print on cancellation:\n%s", out.String())
	}
}

// TestRunSignal injects an interrupt through the testable signal feed.
func TestRunSignal(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		sigs <- syscall.SIGINT
	}()
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "2000", "-builds", "0", "-readers", "1", "-report", "0"}, &out, &errOut, sigs)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; stdout:\n%s", code, out.String())
	}
}

// TestRunProcs exercises the -procs path.
func TestRunProcs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-n", "200", "-builds", "1", "-readers", "1", "-procs", "2", "-report", "0"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "GOMAXPROCS=2") {
		t.Fatalf("-procs not reflected in banner:\n%s", out.String())
	}
}

// TestRunSigterm feeds SIGTERM through the signal channel: the
// service-manager stop signal must cancel as cleanly as an interrupt.
func TestRunSigterm(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		sigs <- syscall.SIGTERM
	}()
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "2000", "-builds", "0", "-readers", "1", "-report", "0"}, &out, &errOut, sigs)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; stdout:\n%s", code, out.String())
	}
}

// TestRunSigtermReal delivers a real SIGTERM to the process with run
// subscribed through the production signal.Notify path (sigs == nil),
// proving the registration itself — not just the channel plumbing —
// covers SIGTERM.
func TestRunSigtermReal(t *testing.T) {
	go func() {
		time.Sleep(50 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "2000", "-builds", "0", "-readers", "1", "-report", "0"}, &out, &errOut, nil)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; stdout:\n%s", code, out.String())
	}
}

// digestLines extracts the per-build "ridtd: build=B digest=XXXXXXXX"
// lines as a build->digest map.
func digestLines(t *testing.T, s string) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, line := range strings.Split(s, "\n") {
		var b int
		var d string
		if n, _ := fmt.Sscanf(line, "ridtd: build=%d digest=%s", &b, &d); n == 2 {
			out[b] = d
		}
	}
	return out
}

// TestRunCheckpointRestore is the crash-recovery loop in miniature,
// in-process: run a build with checkpointing, cut it short, restart with
// -restore, and require the resumed build's digest to equal the
// uninterrupted reference's — the determinism contract across a process
// boundary.
func TestRunCheckpointRestore(t *testing.T) {
	dir := t.TempDir()

	// Interrupted run: checkpoint every round, cancel partway via the
	// signal feed so at least one checkpoint lands before shutdown.
	sigs := make(chan os.Signal, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		sigs <- os.Interrupt
	}()
	var out1, err1 bytes.Buffer
	code := run([]string{"-n", "3000", "-builds", "0", "-readers", "0", "-seed", "5", "-report", "0",
		"-checkpoint", dir, "-checkpoint-every", "1"}, &out1, &err1, sigs)
	if code != 3 {
		t.Fatalf("interrupted run: code %d, want 3; stderr %s", code, err1.String())
	}

	// Restart with -restore: whichever build K was interrupted must
	// resume and finish.
	var out2, err2 bytes.Buffer
	if code := run([]string{"-n", "3000", "-builds", "1", "-readers", "0", "-seed", "5", "-report", "0",
		"-checkpoint", dir, "-restore"}, &out2, &err2, nil); code != 0 {
		t.Fatalf("restore run: code %d, stderr %s", code, err2.String())
	}
	s2 := out2.String()
	idx := strings.Index(s2, "ridtd: restored build=")
	if idx < 0 {
		t.Fatalf("restore run did not report a restore (no checkpoint landed before the interrupt?):\n%s", s2)
	}
	restored := 0
	if n, _ := fmt.Sscanf(s2[idx:], "ridtd: restored build=%d", &restored); n != 1 {
		t.Fatalf("unparseable restore line:\n%s", s2)
	}
	got := digestLines(t, s2)
	if got[restored] == "" {
		t.Fatalf("restored run printed no digest for build %d:\n%s", restored, s2)
	}

	// Reference: build K of the original seed schedule is build 0 of a
	// fresh run with seed 5+K (the daemon seeds build i with seed+i), so
	// the uninterrupted reference digest is reproducible regardless of
	// which build the interrupt landed in.
	var refOut, refErr bytes.Buffer
	if code := run([]string{"-n", "3000", "-builds", "1", "-readers", "0",
		"-seed", fmt.Sprint(5 + restored), "-report", "0"}, &refOut, &refErr, nil); code != 0 {
		t.Fatalf("reference run: code %d, stderr %s", code, refErr.String())
	}
	ref := digestLines(t, refOut.String())
	if ref[0] == "" {
		t.Fatalf("reference run printed no digest:\n%s", refOut.String())
	}
	if got[restored] != ref[0] {
		t.Fatalf("resumed digest %s, reference %s", got[restored], ref[0])
	}
}

// TestRunRestoreFlagErrors pins the flag-validation paths of the
// durability options.
func TestRunRestoreFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-restore"},
		{"-checkpoint", "x", "-checkpoint-every", "0"},
		{"-scrub"},
		{"-scrub-every", "1s"},
		{"-checkpoint", "x", "-scrub-every", "-1s"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, nil); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestRunRestoreEmptyDir: -restore over an empty directory starts fresh
// and still completes.
func TestRunRestoreEmptyDir(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "300", "-builds", "1", "-readers", "0", "-report", "0",
		"-checkpoint", t.TempDir(), "-restore"}, &out, &errOut, nil)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "no checkpoint to restore") {
		t.Fatalf("missing fresh-start notice:\n%s", out.String())
	}
}

// ckptFiles lists the generation files (ckpt-*, quarantine excluded) in
// a checkpoint directory, sorted by name — which, for the fixed-width
// hex generation names, is oldest-first.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") && !strings.HasSuffix(e.Name(), ".bad") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return files
}

// TestRunScrubOnce is the maintenance-mode contract end to end: a
// checkpointed run leaves generations behind; one of them is corrupted;
// `ridtd -scrub` must quarantine it (rename to .bad, never delete),
// repair the chain, and exit 0; and a -restore run over the scrubbed
// directory must still resume and reproduce the reference digest.
func TestRunScrubOnce(t *testing.T) {
	dir := t.TempDir()
	var out1, err1 bytes.Buffer
	code := run([]string{"-n", "3000", "-builds", "1", "-readers", "0", "-seed", "11", "-report", "0",
		"-checkpoint", dir, "-checkpoint-every", "1"}, &out1, &err1, nil)
	if code != 0 {
		t.Fatalf("checkpointed run: code %d, stderr %s", code, err1.String())
	}
	if !strings.Contains(out1.String(), "ridtd: ckpt saved=") {
		t.Fatalf("summary missing checkpoint counters:\n%s", out1.String())
	}
	ref := digestLines(t, out1.String())
	if ref[0] == "" {
		t.Fatalf("no digest line in checkpointed run:\n%s", out1.String())
	}
	files := ckptFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("checkpointed run left no generations on disk")
	}

	// Corrupt the newest generation on disk.
	p := filepath.Join(dir, files[len(files)-1])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out2, err2 bytes.Buffer
	if code := run([]string{"-checkpoint", dir, "-scrub"}, &out2, &err2, nil); code != 0 {
		t.Fatalf("scrub run: code %d, stderr %s", code, err2.String())
	}
	s := out2.String()
	var verified, skipped, quarantined, repaired int
	idx := strings.Index(s, "ridtd: scrub verified=")
	if idx < 0 {
		t.Fatalf("scrub printed no result line:\n%s", s)
	}
	if n, _ := fmt.Sscanf(s[idx:], "ridtd: scrub verified=%d skipped=%d quarantined=%d repaired=%d",
		&verified, &skipped, &quarantined, &repaired); n != 4 {
		t.Fatalf("unparseable scrub result line:\n%s", s)
	}
	if quarantined < 1 {
		t.Fatalf("scrub of a corrupted generation quarantined nothing:\n%s", s)
	}
	if !strings.Contains(s, "ridtd: scrub newest-restorable=") {
		t.Fatalf("scrub reported no restorable generation:\n%s", s)
	}
	badSeen := false
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".bad") {
			badSeen = true
		}
	}
	if !badSeen {
		t.Fatal("quarantine left no .bad file (corrupt evidence must be renamed, not deleted)")
	}

	// The scrubbed directory still restores, and the resumed build is
	// byte-identical to the uninterrupted reference.
	var out3, err3 bytes.Buffer
	if code := run([]string{"-n", "3000", "-builds", "1", "-readers", "0", "-seed", "11", "-report", "0",
		"-checkpoint", dir, "-restore"}, &out3, &err3, nil); code != 0 {
		t.Fatalf("restore after scrub: code %d, stderr %s", code, err3.String())
	}
	if !strings.Contains(out3.String(), "ridtd: restored build=0") {
		t.Fatalf("restore after scrub did not resume:\n%s", out3.String())
	}
	got := digestLines(t, out3.String())
	if got[0] != ref[0] {
		t.Fatalf("post-scrub resumed digest %s, reference %s", got[0], ref[0])
	}
}

// TestRunScrubOnceEmptyDir: one-shot scrub of an empty directory is a
// clean no-op pass.
func TestRunScrubOnceEmptyDir(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-checkpoint", t.TempDir(), "-scrub"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("code %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ridtd: scrub verified=0 skipped=0 quarantined=0 repaired=0") {
		t.Fatalf("empty-dir scrub output:\n%s", out.String())
	}
}

// TestRunScrubEverySmoke runs the background scrubber alongside a real
// checkpointed build and checks the pass counters reach the summary.
func TestRunScrubEverySmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "3000", "-builds", "1", "-readers", "0", "-seed", "13", "-report", "0",
		"-checkpoint", t.TempDir(), "-checkpoint-every", "1", "-scrub-every", "1ms"}, &out, &errOut, nil)
	if code != 0 {
		t.Fatalf("code %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ridtd: scrub passes=") {
		t.Fatalf("summary missing scrub counters:\n%s", out.String())
	}
}
