package check

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ActionKind is one targeted frame perturbation.
type ActionKind uint8

// Explorer action kinds.
const (
	// ActDrop loses the frame's first transmission; retransmissions
	// still get through (a single loss event).
	ActDrop ActionKind = iota
	// ActDropAll loses every transmission of the frame — the frame is
	// unrecoverable at the transport and only a fresh request (new
	// sequence number) can replace it.
	ActDropAll
	// ActDup delivers a second copy back-to-back with the first,
	// probing receive-path idempotence and buffer accounting.
	ActDup
	// ActDelay postpones delivery by Action.Delay; a one-tick delay
	// swaps same-timestamp delivery order, larger delays reorder
	// across protocol steps.
	ActDelay
)

func (k ActionKind) String() string {
	switch k {
	case ActDrop:
		return "drop"
	case ActDropAll:
		return "dropall"
	case ActDup:
		return "dup"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Action perturbs one logical frame. Frames are indexed by order of
// first origin-host transmission of memory-protocol frames during the
// measured phase — index 0 is the first MsgMem frame a host sends
// after the scenario's setup quiesced. Retransmissions share their
// original frame's index.
type Action struct {
	Frame int
	Kind  ActionKind
	Delay netsim.Duration // ActDelay only
}

func (a Action) String() string {
	if a.Kind == ActDelay {
		return fmt.Sprintf("%s:%d:%d", a.Kind, a.Frame, int64(a.Delay))
	}
	return fmt.Sprintf("%s:%d", a.Kind, a.Frame)
}

// Schedule is an ordered set of frame perturbations; its textual form
// ("dropall:7,delay:3:1000") round-trips through ParseSchedule so a
// violating schedule can be replayed from the command line.
type Schedule []Action

func (s Schedule) String() string {
	if len(s) == 0 {
		return "none"
	}
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the form produced by Schedule.String:
// comma-separated kind:frame or delay:frame:nanoseconds entries
// ("none" and "" parse to an empty schedule).
func ParseSchedule(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("check: bad schedule entry %q", part)
		}
		frame, err := strconv.Atoi(fields[1])
		if err != nil || frame < 0 {
			return nil, fmt.Errorf("check: bad frame index in %q", part)
		}
		a := Action{Frame: frame}
		if fields[0] != "delay" && len(fields) != 2 {
			return nil, fmt.Errorf("check: %s takes a frame index and nothing else in %q", fields[0], part)
		}
		switch fields[0] {
		case "drop":
			a.Kind = ActDrop
		case "dropall":
			a.Kind = ActDropAll
		case "dup":
			a.Kind = ActDup
		case "delay":
			a.Kind = ActDelay
			if len(fields) != 3 {
				return nil, fmt.Errorf("check: delay needs a duration in %q", part)
			}
			ns, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || ns <= 0 {
				return nil, fmt.Errorf("check: bad delay in %q", part)
			}
			a.Delay = netsim.Duration(ns)
		default:
			return nil, fmt.Errorf("check: unknown action %q", fields[0])
		}
		out = append(out, a)
	}
	return out, nil
}

// frameKey identifies a logical frame across retransmissions: the
// transport reuses (source station, sequence) for every retransmit.
type frameKey struct {
	src wire.StationID
	seq uint64
}

// injector applies a Schedule through the netsim frame-control hook.
// It indexes logical frames on their origin hop only (host → leaf),
// so a frame crossing three fabric links gets exactly one index, and
// dedups retransmissions by (src, seq).
type injector struct {
	actions map[int]Action
	index   map[frameKey]int
	applied map[int]bool
	kill    map[frameKey]bool
	next    int
}

func newInjector(sched Schedule) *injector {
	in := &injector{
		actions: make(map[int]Action, len(sched)),
		index:   make(map[frameKey]int),
		applied: make(map[int]bool),
		kill:    make(map[frameKey]bool),
	}
	for _, a := range sched {
		in.actions[a.Frame] = a
	}
	return in
}

// originHost reports whether the sending device is a host (fabric
// switches are named "core"/"leaf<N>"; everything else — "node<N>",
// "controller", test hosts — originates frames).
func originHost(from string) bool {
	return from != "core" && !strings.HasPrefix(from, "leaf")
}

func (in *injector) hook(from, _ string, fr netsim.Frame) netsim.FrameControl {
	if !originHost(from) {
		return netsim.FrameControl{}
	}
	var h wire.Header
	if h.DecodeFrom(fr) != nil {
		return netsim.FrameControl{}
	}
	// Memory-protocol frames are the classic target; consensus frames
	// (votes, appends) join the index so the raft scenario's explorer
	// runs can lose an election or sever a replication step, and the
	// in-network invalidation/ack frames join it so the INC scenario
	// can silence a multicast or an ack leg (only INC-enabled
	// scenarios emit them, so legacy frame indices are unchanged).
	// Other types pass untouched.
	switch h.Type {
	case wire.MsgMem, wire.MsgRaft, wire.MsgIncInv, wire.MsgIncAck:
	default:
		return netsim.FrameControl{}
	}
	key := frameKey{h.Src, h.Seq}
	idx, seen := in.index[key]
	if !seen {
		idx = in.next
		in.next++
		in.index[key] = idx
	}
	if in.kill[key] {
		return netsim.FrameControl{Drop: true}
	}
	act, ok := in.actions[idx]
	if !ok {
		return netsim.FrameControl{}
	}
	switch act.Kind {
	case ActDropAll:
		in.kill[key] = true
		return netsim.FrameControl{Drop: true}
	case ActDrop:
		if in.applied[idx] {
			return netsim.FrameControl{}
		}
		in.applied[idx] = true
		return netsim.FrameControl{Drop: true}
	case ActDup:
		if in.applied[idx] {
			return netsim.FrameControl{}
		}
		in.applied[idx] = true
		return netsim.FrameControl{Dup: true}
	case ActDelay:
		if in.applied[idx] {
			return netsim.FrameControl{}
		}
		in.applied[idx] = true
		return netsim.FrameControl{Delay: act.Delay}
	}
	return netsim.FrameControl{}
}

// ExploreConfig bounds a schedule exploration.
type ExploreConfig struct {
	// Seed is passed to every scenario build, so a violating schedule
	// replays bit-identically.
	Seed int64
	// MaxRuns bounds total scenario executions (default 200).
	MaxRuns int
}

// maxFrames bounds how many logical frames are perturbed: the first
// maxFrames measured-phase frames.
const maxFrames = 12

// probeDelays are the ActDelay magnitudes probed per frame: one tick —
// a same-timestamp order swap — and 400µs, past a retransmit timeout
// (SRTT + max(200µs floor, 4·RTTVAR) on the fabric's ~50µs paths).
var probeDelays = [...]netsim.Duration{netsim.Nanosecond, 400 * netsim.Microsecond}

func (c *ExploreConfig) fill() {
	if c.MaxRuns == 0 {
		c.MaxRuns = 200
	}
}

// Report is the outcome of an exploration (or a single Replay).
type Report struct {
	Scenario string
	Seed     int64
	// Runs is how many scenario executions the search consumed.
	Runs int
	// Frames is the number of logical frames the baseline run indexed.
	Frames int
	// Schedule is the minimal violating schedule (nil when clean).
	Schedule Schedule
	// Violations are the invariant breaches the schedule produces.
	Violations []Violation
	// TraceTree is the causal span tree of the violating replay
	// (empty when clean or tracing reproduces no violation).
	TraceTree string
}

// Clean reports whether no schedule produced a violation.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	if r.Clean() {
		fmt.Fprintf(&b, "scenario %s seed %d: clean (%d runs, %d frames probed)\n",
			r.Scenario, r.Seed, r.Runs, r.Frames)
		return b.String()
	}
	fmt.Fprintf(&b, "scenario %s seed %d: VIOLATION after %d runs\n", r.Scenario, r.Seed, r.Runs)
	fmt.Fprintf(&b, "  schedule: %s\n", r.Schedule)
	fmt.Fprintf(&b, "  replay:   gaspbench check -scenario %s -seed %d -schedule %q\n",
		r.Scenario, r.Seed, r.Schedule.String())
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.TraceTree != "" {
		b.WriteString("  trace of the violating operation:\n")
		for _, line := range strings.Split(strings.TrimRight(r.TraceTree, "\n"), "\n") {
			b.WriteString("    ")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// runOnce builds the scenario fresh, installs sched, drives it, and
// returns the checker's verdict. Drive errors (a workload that could
// not complete under an adversarial schedule) are tolerated: only
// safety violations count.
func runOnce(sc Scenario, seed int64, sched Schedule, traced bool) (*Report, []*trace.Span, error) {
	run, err := sc.Build(seed, traced)
	if err != nil {
		return nil, nil, fmt.Errorf("check: building scenario %s: %w", sc.Name, err)
	}
	in := newInjector(sched)
	run.Cluster.Net.SetFrameControlHook(in.hook)
	_ = run.Drive()
	rep := &Report{
		Scenario:   sc.Name,
		Seed:       seed,
		Frames:     in.next,
		Schedule:   sched,
		Violations: run.Checker.Violations(),
	}
	var spans []*trace.Span
	if traced && run.Cluster.Tracer != nil {
		spans = run.Cluster.Tracer.Spans()
	}
	return rep, spans, nil
}

// Replay executes one scenario under one explicit schedule — the
// command-line path for reproducing a Report. An action naming a frame
// the run never indexed perturbed nothing, so it is an error rather
// than a clean verdict.
func Replay(sc Scenario, seed int64, sched Schedule) (*Report, error) {
	rep, _, err := runOnce(sc, seed, sched, false)
	if err != nil {
		return nil, err
	}
	for _, a := range sched {
		if a.Frame >= rep.Frames {
			return nil, fmt.Errorf("check: %s is out of range: scenario %s indexed %d frames at seed %d",
				a, sc.Name, rep.Frames, seed)
		}
	}
	rep.Runs = 1
	if !rep.Clean() {
		attachTrace(sc, rep)
	}
	return rep, nil
}

// Explore searches the bounded schedule space for an invariant
// violation: baseline first, then every single-action perturbation of
// the first maxFrames logical frames, then drop-all pairs (the
// minimal shape that exercises loss of a fragment plus loss of its
// recovery). On a hit the schedule is greedily shrunk and replayed
// traced; the Report carries everything needed to reproduce the bug.
func Explore(sc Scenario, cfg ExploreConfig) (*Report, error) {
	cfg.fill()
	runs := 0
	exec := func(sched Schedule) (*Report, error) {
		runs++
		rep, _, err := runOnce(sc, cfg.Seed, sched, false)
		return rep, err
	}
	base, err := exec(nil)
	if err != nil {
		return nil, err
	}
	frames := base.Frames
	finish := func(rep *Report) *Report {
		rep.Runs = runs
		rep.Frames = frames
		attachTrace(sc, rep)
		return rep
	}
	if !base.Clean() {
		return finish(base), nil
	}

	probe := min(frames, maxFrames)
	var candidates []Schedule
	for f := 0; f < probe; f++ {
		candidates = append(candidates,
			Schedule{{Frame: f, Kind: ActDropAll}},
			Schedule{{Frame: f, Kind: ActDrop}},
			Schedule{{Frame: f, Kind: ActDup}})
		for _, d := range probeDelays {
			candidates = append(candidates, Schedule{{Frame: f, Kind: ActDelay, Delay: d}})
		}
	}
	for i := 0; i < probe; i++ {
		for j := i + 1; j < probe; j++ {
			candidates = append(candidates, Schedule{
				{Frame: i, Kind: ActDropAll},
				{Frame: j, Kind: ActDropAll},
			})
		}
	}
	for _, cand := range candidates {
		if runs >= cfg.MaxRuns {
			break
		}
		rep, err := exec(cand)
		if err != nil {
			return nil, err
		}
		if rep.Clean() {
			continue
		}
		shrunk, srep, err := shrinkSchedule(cand, rep, exec, cfg.MaxRuns, &runs)
		if err != nil {
			return nil, err
		}
		srep.Schedule = shrunk
		return finish(srep), nil
	}
	clean := &Report{Scenario: sc.Name, Seed: cfg.Seed, Runs: runs, Frames: frames}
	return clean, nil
}

// shrinkSchedule greedily minimizes a violating schedule: first by
// removing actions, then by weakening drop-all to single drops. Each
// candidate must still violate to be accepted.
func shrinkSchedule(sched Schedule, rep *Report, exec func(Schedule) (*Report, error), maxRuns int, runs *int) (Schedule, *Report, error) {
	improved := true
	for improved && *runs < maxRuns {
		improved = false
		for i := range sched {
			cand := make(Schedule, 0, len(sched)-1)
			cand = append(cand, sched[:i]...)
			cand = append(cand, sched[i+1:]...)
			r, err := exec(cand)
			if err != nil {
				return nil, nil, err
			}
			if !r.Clean() {
				sched, rep, improved = cand, r, true
				break
			}
			if *runs >= maxRuns {
				return sched, rep, nil
			}
		}
		if improved {
			continue
		}
		for i, a := range sched {
			if a.Kind != ActDropAll {
				continue
			}
			cand := append(Schedule(nil), sched...)
			cand[i].Kind = ActDrop
			r, err := exec(cand)
			if err != nil {
				return nil, nil, err
			}
			if !r.Clean() {
				sched, rep, improved = cand, r, true
				break
			}
			if *runs >= maxRuns {
				return sched, rep, nil
			}
		}
	}
	return sched, rep, nil
}

// attachTrace replays rep's schedule with full span sampling and
// renders the causal tree of the trace active at the first violation.
// Tracing widens frames (the header grows), which can shift timings;
// if the traced replay no longer violates, the untraced verdict is
// kept and no tree is attached.
func attachTrace(sc Scenario, rep *Report) {
	trep, spans, err := runOnce(sc, rep.Seed, rep.Schedule, true)
	if err != nil || trep.Clean() || len(spans) == 0 {
		return
	}
	at := trep.Violations[0].At
	var pick uint64
	var pickStart netsim.Time
	for _, id := range trace.TraceIDs(spans) {
		root := trace.Root(spans, id)
		if root == nil {
			continue
		}
		if root.Start <= at && (pick == 0 || root.Start >= pickStart) {
			pick, pickStart = id, root.Start
		}
	}
	if pick == 0 {
		return
	}
	var b strings.Builder
	trace.WriteTree(&b, spans, pick)
	rep.TraceTree = b.String()
}
