package check

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestParseScheduleRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"drop:0",
		"dropall:7",
		"dup:3",
		"delay:5:200000",
		"dropall:1,dropall:3",
		"drop:2,dup:4,delay:9:1",
	}
	for _, in := range cases {
		s, err := ParseSchedule(in)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", in, err)
		}
		if got := s.String(); got != in {
			t.Fatalf("round trip %q -> %q", in, got)
		}
	}
	for _, bad := range []string{"nope:1", "drop:x", "delay:1", "delay:1:-5", "drop"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestScheduleRejectsWhatItCannotApply: a schedule the parser would
// silently truncate, or whose action names a frame the run never
// sends, must be an error — a replay that perturbed nothing is not a
// pass.
func TestScheduleRejectsWhatItCannotApply(t *testing.T) {
	fig2, _ := ScenarioByName("fig2")
	for _, tc := range []struct {
		schedule string
		wantErr  string // substring of the parse or replay error; "" = replays
	}{
		{"drop:8", ""},
		{"delay:13:1000", ""},
		{"drop:3:77:zz", "nothing else"},
		{"dup:1:5", "nothing else"},
		{"dropall:2:", "nothing else"},
		{"delay:1:5:9", "delay needs a duration"},
		{"drop:9999", "drop:9999 is out of range: scenario fig2 indexed 14 frames"},
		{"drop:2,delay:14:1", "delay:14:1 is out of range"},
	} {
		sched, err := ParseSchedule(tc.schedule)
		if err == nil {
			_, err = Replay(fig2, 42, sched)
		}
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%q: err=%v, want %q", tc.schedule, err, tc.wantErr)
		}
	}
}

// memFrame builds an encoded MsgMem frame from src with the given seq.
func memFrame(t *testing.T, src wire.StationID, seq uint64) netsim.Frame {
	t.Helper()
	h := wire.Header{Type: wire.MsgMem, Src: src, Dst: 2, Seq: seq}
	fr, err := wire.Encode(&h, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestInjectorIndexesLogicalFrames(t *testing.T) {
	in := newInjector(Schedule{
		{Frame: 0, Kind: ActDropAll},
		{Frame: 1, Kind: ActDrop},
	})
	f0, f1 := memFrame(t, 5, 1), memFrame(t, 5, 2)

	// Switch hops never index or perturb.
	if ctl := in.hook("leaf0", "core", f0); ctl != (netsim.FrameControl{}) || in.next != 0 {
		t.Fatalf("switch hop perturbed: %+v next=%d", ctl, in.next)
	}
	// Origin hop of frame 0: drop-all.
	if ctl := in.hook("node0", "leaf0", f0); !ctl.Drop {
		t.Fatalf("frame 0 not dropped: %+v", ctl)
	}
	// Retransmit (same src/seq) shares the index and stays killed.
	if ctl := in.hook("node0", "leaf0", f0); !ctl.Drop || in.next != 1 {
		t.Fatalf("retransmit of killed frame: %+v next=%d", ctl, in.next)
	}
	// Frame 1: single drop hits the first transmission only.
	if ctl := in.hook("node0", "leaf0", f1); !ctl.Drop {
		t.Fatalf("frame 1 first send not dropped: %+v", ctl)
	}
	if ctl := in.hook("node0", "leaf0", f1); ctl.Drop {
		t.Fatal("frame 1 retransmit dropped by single-drop action")
	}
	// Non-MsgMem frames pass untouched and take no index.
	ack := wire.Header{Type: wire.MsgAck, Src: 5, Dst: 2, Seq: 9}
	fr, err := wire.Encode(&ack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctl := in.hook("node0", "leaf0", fr); ctl != (netsim.FrameControl{}) || in.next != 2 {
		t.Fatalf("ack frame indexed or perturbed: %+v next=%d", ctl, in.next)
	}
}

// legacyEnv, set, tells TestExploreFindsLegacyReassemblyBugs that it
// runs in a test binary built with the legacy reassembly mutant.
const legacyEnv = "CHECK_UNDER_LEGACY_REASSEMBLY"

// TestExploreFindsLegacyReassemblyBugs is the explorer's regression
// test: with the reassembler's legacy accounting put back by
// scripts/mutants/05-legacy-reassembly.patch (duplicate bytes count
// toward completion, version skew unchecked), the explorer must find
// an invariant violation in the fig2 scenario and emit a replayable
// seed + shrunk schedule, and the identical schedule must run clean on
// the tree. The mutant half runs in this package's tests rebuilt with
// the patch's overlay; skipped under -short, it takes seconds.
func TestExploreFindsLegacyReassemblyBugs(t *testing.T) {
	if os.Getenv(legacyEnv) != "" {
		exploreLegacy(t)
		return
	}
	if testing.Short() {
		t.Skip("builds and runs this package's tests with the legacy reassembly mutant")
	}
	const mutant = "05-legacy-reassembly"
	keep := t.TempDir()
	if out, err := exec.Command("bash", "../../scripts/mutants.sh", "-keep", keep, mutant).CombinedOutput(); err != nil {
		t.Fatalf("scripts/mutants.sh %s: %v\n%s", mutant, err, out)
	}
	cmd := exec.Command("go", "test", "-count=1", "-v", "-overlay", filepath.Join(keep, mutant, "overlay.json"),
		"-run", "^TestExploreFindsLegacyReassemblyBugs$", ".")
	cmd.Env = append(os.Environ(), legacyEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("under the mutant: %v\n%s", err, out)
	}
	_, shrunk, ok := strings.Cut(string(out), "shrunk schedule: ")
	shrunk, _, _ = strings.Cut(shrunk, "\n")
	sched, err := ParseSchedule(shrunk)
	if !ok || err != nil {
		t.Fatalf("no shrunk schedule in the mutant's run (%v):\n%s", err, out)
	}

	// With the fixes applied, the same adversarial schedule is harmless.
	sc, _ := ScenarioByName("fig2")
	fixed, err := Replay(sc, 7, sched)
	if err != nil {
		t.Fatalf("Replay (fixed): %v", err)
	}
	if !fixed.Clean() {
		t.Fatalf("fixed reassembler still violates under %s: %v", sched, fixed.Violations)
	}
}

// exploreLegacy is TestExploreFindsLegacyReassemblyBugs's half under
// the mutant. It logs the shrunk schedule for the fixed replay.
func exploreLegacy(t *testing.T) {
	sc, _ := ScenarioByName("fig2")
	rep, err := Explore(sc, ExploreConfig{Seed: 7})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Clean() {
		t.Fatalf("explorer missed the legacy reassembly bugs (%d runs, %d frames)", rep.Runs, rep.Frames)
	}
	if len(rep.Schedule) == 0 || len(rep.Schedule) > 2 {
		t.Fatalf("schedule not shrunk to a minimal core: %s", rep.Schedule)
	}
	if !hasInvariant(rep.Violations, InvCopyDivergence) {
		t.Fatalf("expected a copy-divergence violation, got %v", rep.Violations)
	}
	out := rep.String()
	for _, want := range []string{"VIOLATION", "replay:", "-seed 7", sc.Name} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The torn copy is the reader's acquire's, and its record names it;
	// the home's write that started later is not the violating op. The
	// tree's first line is its header, the second its root.
	if lines := strings.Split(rep.TraceTree, "\n"); len(lines) < 2 || !strings.Contains(lines[1], "op:acquire-shared") {
		t.Fatalf("trace of the violating operation is not the acquire's:\n%s", rep.TraceTree)
	}

	// The shrunk schedule replays deterministically from seed alone.
	again, err := Replay(sc, rep.Seed, rep.Schedule)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if again.Clean() {
		t.Fatalf("shrunk schedule %s did not replay the violation", rep.Schedule)
	}
	t.Logf("shrunk schedule: %s", rep.Schedule)
}

func hasInvariant(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestExploreCleanWithFixes bounds a clean exploration of each
// scenario: the current protocol must survive the explorer's
// single-action probes without a safety violation.
func TestExploreCleanWithFixes(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded exploration is a few hundred simulated runs")
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Explore(sc, ExploreConfig{Seed: 7, MaxRuns: 80})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("fixed protocol violated under %s:\n%s", rep.Schedule, rep)
			}
			if rep.Frames == 0 {
				t.Fatal("no frames indexed — injector matched nothing")
			}
		})
	}
}

// TestScenarioFrameIdentity pins what `gaspbench check -seed 42`
// prints — each scenario's nominal logical frame count, all clean —
// plus the nominal run's last virtual instant and fabric frame count,
// so a scenario rewrite that moves one operation by one tick fails
// here. (The explorer's search order is pinned at the module root by
// TestLegacyReassemblyMutant: fig2 violates after 44 runs, shrunk to
// drop:8.) faults, raft and inc-agg-dead-sharer end later since a
// retransmit timeout is SRTT + max(floor, 4·RTTVAR): frames to a crashed node back
// off from a longer first timeout before they retry out, and raft's
// heartbeats run on through the longer drain (310 → 382 frames).
func TestScenarioFrameIdentity(t *testing.T) {
	want := []struct {
		name   string
		frames int
		end    netsim.Time
		sent   uint64
	}{
		{"fig2", 14, 12069944, 132},
		{"faults", 49, 10330207, 370},
		{"load", 116, 4282253, 916},
		{"evict", 36, 2000706, 244},
		{"raft", 382, 16518160, 1247},
		{"inc-agg-dead-sharer", 16, 17739683, 180},
		{"batch", 116, 2740077, 916},
	}
	scs := Scenarios()
	if len(scs) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(scs), len(want))
	}
	for i, w := range want {
		sc := scs[i]
		if sc.Name != w.name {
			t.Fatalf("scenario %d is %q, want %q", i, sc.Name, w.name)
		}
		run, err := sc.Build(42, false)
		if err != nil {
			t.Fatalf("%s: build: %v", w.name, err)
		}
		in := newInjector(nil)
		run.Cluster.Net.SetFrameControlHook(in.hook)
		if err := run.Drive(); err != nil {
			t.Fatalf("%s: drive: %v", w.name, err)
		}
		end, sent := run.Cluster.Sim.Now(), run.Cluster.Stats().Network.FramesSent
		if in.next != w.frames || end != w.end || sent != w.sent || !run.Checker.Ok() {
			t.Errorf("%s: %d logical frames, end %d, %d fabric frames, ok=%v; want %d, %d, %d, clean",
				w.name, in.next, end, sent, run.Checker.Ok(), w.frames, w.end, w.sent)
		}
	}
}
