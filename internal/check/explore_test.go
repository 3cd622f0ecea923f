package check

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
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
		// fig2's 160KB grant is five 32 KiB fragments, so the run
		// indexes 16 frames (14 when a fragment was 65,492 B).
		{"drop:9999", "drop:9999 is out of range: scenario fig2 indexed 16 frames"},
		{"drop:2,delay:16:1", "delay:16:1 is out of range"},
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
	for _, sc := range Scenarios(7) {
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
// so a scenario rewrite or a generator edit that moves one operation by
// one tick fails here. (The explorer's search order is pinned at the
// module root by TestLegacyReassemblyMutant: fig2 violates after 73
// runs, shrunk to delay:8:1600000.) fig2, raft and dead-sharer
// run scripts of their own: fig2's 160KB grant is five fragments (16
// logical frames), and its end is the late small read's, which the
// transfer does not touch. load, evict, batch
// and faults were re-pinned when they began to run the generated
// script (seeded by -seed and the scenario's name) in place of the
// hand-tuned mixes; faults now runs four nodes, homes its object on
// node 2, replicates it to node 3 and crashes the home as the measured
// phase starts, so the promotion always has node 3's copy, and the
// script starts 400 µs later, just before the promotion. Since an
// exclusive acquire held under genHold/4 leaves its copy unchanged, and
// its release goes home without the bytes, faults ends 13 µs sooner.
// Since an exclusive acquire of a copy still at the home's version is
// granted without data, evict sends 2 fewer fabric frames. The cells
// after them are the ones seed 42 draws. The retired hybrid
// scheme keeps its slot in the draw, so its two cells gave way to the
// last two rows and the other cells kept their pins. Since a response
// is not acked, every scenario sends fewer fabric frames (fig2 148 →
// 140), and a drain ends with the requester's tell of its mark, one
// RetransmitTimeout after its last answer, where it ended with the ack
// of that answer: fig2, faults, batch, sharded and e2e+lru+punt+batch
// end exactly 200 µs later, the others by what their last exchanges
// moved. raft's drains between phases end later too, so its measured
// phase starts 157 µs later against its daemon heartbeats: one locate
// goes twice, the run ends 564 µs later and indexes 6 more consensus
// frames (382 → 388). Since the release of an unchanged copy sends
// nothing, the data-less release request and its answer are gone: 2 of
// them in faults and evict (42 → 38 and 50 → 46 logical frames, 16
// fabric frames fewer each) and 1 in sharded+lru (37 → 35, 8 fewer).
// faults ended with such a release, so it ends its round trip sooner
// (1,428,827 → 1,388,219 ns); the other two did not, and end as before.
// dead-sharer ran as inc-agg-dead-sharer, on multicast invalidation
// and switch ack aggregation, until they were removed. Each of its two
// writes was one group invalidate, three sharer acks and, 2 ms later,
// one per-sharer invalidate of the dead sharer: 5 logical frames. Now
// it is four invalidates and the three live sharers' acks: 7. With the
// six frames of the re-acquires between them, 16 → 20 logical and
// 180 → 196 fabric frames. The dead sharer's invalidate now goes out
// with the others, not after a 54 µs group install and the 2 ms ack
// timeout, so the run ends 3.6 ms sooner (17,735,372 → 14,129,793
// ns). The last cell was controller+mcast+batch: seed 42 drew it
// with mcast, so the draw is discarded and e2e+batch, the next one
// kept, takes its row. Since the GASP header is 40 bytes, not 64, every
// frame crosses each 10 Gb/s hop 19.2 ns sooner, and no count moves:
// each run ends earlier by the hops on its critical path (fig2 by
// 232 ns: its last read's two frames and the tell after it, 12
// crossings), raft and dead-sharer by more, over their longer chains.
func TestScenarioFrameIdentity(t *testing.T) {
	want := []struct {
		name   string
		frames int
		end    netsim.Time
		sent   uint64
	}{
		{"fig2", 16, 12269496, 140},
		{"faults", 38, 1387478, 235},
		{"load", 36, 914064, 266},
		{"evict", 46, 960085, 238},
		{"raft", 388, 17077922, 1218},
		{"dead-sharer", 20, 14123248, 196},
		{"batch", 44, 973051, 338},
		{"sharded", 30, 948549, 176},
		{"controller+lru", 44, 909436, 304},
		{"sharded+lru", 35, 6461515, 199},
		{"sharded+batch", 42, 1050409, 252},
		{"e2e+lru+punt+batch", 26, 880847, 214},
		{"e2e+batch", 42, 974439, 322},
	}
	scs := Scenarios(42)
	if len(scs) != len(want) {
		t.Errorf("%d scenarios, want %d", len(scs), len(want))
	}
	for i, sc := range scs {
		run, err := sc.Build(42, false)
		if err != nil {
			t.Fatalf("%s: build: %v", sc.Name, err)
		}
		in := newInjector(nil)
		run.Cluster.Net.SetFrameControlHook(in.hook)
		if err := run.Drive(); err != nil {
			t.Fatalf("%s: drive: %v", sc.Name, err)
		}
		end, sent := run.Cluster.Sim.Now(), run.Cluster.Telemetry().Value("net.frames_sent")
		if i >= len(want) || sc.Name != want[i].name || in.next != want[i].frames || end != want[i].end || sent != want[i].sent || !run.Checker.Ok() {
			t.Errorf("scenario %d: {%q, %d, %d, %d} ok=%v, want %v and clean", i, sc.Name, in.next, end, sent, run.Checker.Ok(), want[min(i, len(want)-1)])
		}
	}
}

// TestCellNamesRoundTrip: a generated cell is its name. Every cell the
// seeds draw resolves by name to the same configuration, which
// NewCluster accepts, and a name with an unknown scheme or flag
// resolves to nothing: so does one with a retired flag or scheme, so an
// old replay line ("check -scenario hybrid+lru") fails as an unknown
// scenario.
func TestCellNamesRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 100, 2024} {
		for _, sc := range Cells(seed) {
			got, ok := ScenarioByName(sc.Name)
			if !ok || !reflect.DeepEqual(got.Cell, sc.Cell) {
				t.Errorf("seed %d: %q resolves to %+v (ok=%v), drawn as %+v", seed, sc.Name, got.Cell, ok, sc.Cell)
			}
			if _, err := core.NewCluster(sc.Cell); err != nil {
				t.Errorf("seed %d: %q: %v", seed, sc.Name, err)
			}
		}
	}
	for _, bad := range []string{"", "e2e+", "e2e+nope", "controller-ha", "sharded+lru+nope", "+lru", "e2e+cache", "sharded+ring", "controller+mcast", "controller+mcast+agg", "controller+agg", "hybrid+lru", "hybrid"} {
		if _, ok := ScenarioByName(bad); ok {
			t.Errorf("ScenarioByName(%q) accepted", bad)
		}
	}
}

// TestGeneratedInputIsNotVacuous: at CI's seeds, 42 and 7, every
// nominal E10 run meets its Expect (evict punts, batch coalesces) and
// completes its script (faults' fails unless the crashed home's object
// was promoted), every generated cell completes an exclusive acquire
// and a release, and some run ends with a station its records say was
// told exclusive on a grant its home still counts, so told-exclusive
// checks a live grant in CI's `gaspbench check` runs. Seed 42 alone
// has no such run. Each seed's runs also serve some exclusive acquire
// without data, so the checker judges the upgrade path in CI too.
func TestGeneratedInputIsNotVacuous(t *testing.T) {
	told := 0
	for _, seed := range []int64{42, 7} {
		upgrades := uint64(0)
		for i, sc := range Scenarios(seed) {
			run, err := sc.Build(seed, false)
			if err != nil {
				t.Fatalf("seed %d: %s: build: %v", seed, sc.Name, err)
			}
			done := map[coherence.RecordKind]int{}
			for _, n := range run.Cluster.Nodes {
				n.Coherence.AddObserver(func(r coherence.Record) {
					if r.Err == nil {
						done[r.Kind]++
					}
				})
			}
			if err := run.Drive(); err != nil {
				t.Errorf("seed %d: %s: %v", seed, sc.Name, err)
			}
			upgrades += run.Cluster.Telemetry().Value("coherence.upgrades_served")
			if generatedCell := i >= len(named()); generatedCell && (done[coherence.RecAcquireExclusive] == 0 || done[coherence.RecRelease] == 0) {
				t.Errorf("seed %d: %s completed %d exclusive acquires and %d releases", seed, sc.Name, done[coherence.RecAcquireExclusive], done[coherence.RecRelease])
			}
			for obj, m := range run.Checker.objects {
				for st, p := range m.stations {
					for _, n := range run.Cluster.Nodes {
						if e, ok := n.Store.Peek(obj); p.excl && !p.revoked && n.Station == st && ok && !e.Home {
							told++
						}
					}
				}
			}
		}
		if upgrades == 0 {
			t.Errorf("seed %d: no run served an exclusive acquire without data", seed)
		}
	}
	if told == 0 {
		t.Error("no run ends with a station told it holds an object exclusively")
	}
}
