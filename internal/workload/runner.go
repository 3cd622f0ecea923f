package workload

import (
	"repro/internal/backend"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Target is anything the runner can drive: it starts one operation
// and calls done exactly once when the operation's outcome is known.
type Target interface {
	Issue(op Op, done func(error))
}

// Config tunes one runner.
type Config struct {
	// Seed drives the generator (schedule, kinds, keys, arrival gaps).
	Seed int64
	// Arrival selects the arrival process.
	Arrival ArrivalConfig
	// Mix is the operation mix.
	Mix Mix
	// Keys is the key-popularity model.
	Keys KeyConfig
	// Warmup precedes the measure window; ops intended during warmup
	// run but are not counted or recorded.
	Warmup netsim.Duration
	// Measure is the measurement window length.
	Measure netsim.Duration
	// MaxOutstanding caps in-flight ops (0 = unlimited). Ops over the
	// cap queue FIFO but keep their original intended time, so queueing
	// delay is measured, not coordinated away.
	MaxOutstanding int
}

// Runner drives a Target with the configured workload on the backend
// clock — virtual or wall. Create with New, call Start, then drain
// the simulation (e.g. Cluster.Run) or sleep out the window
// (realnet), and read Result.
type Runner struct {
	clock backend.Clock
	tgt   Target
	cfg   Config
	gen   *Gen
	rec   *Recorder

	counters    Counters
	outstanding int
	backlog     []Op
	backlogHead int
	issueEnd    netsim.Time
	free        []*issued

	tickFn func() // cached method value: one closure, many schedules
}

// issued is one op in flight. Records cycle through Runner.free with
// their completion bound once, so issuing an op allocates nothing.
type issued struct {
	r          *Runner
	op         Op
	completeFn func(error)
}

// New builds a runner; Start begins issuing.
func New(clock backend.Clock, tgt Target, cfg Config) *Runner {
	cfg.Arrival.fill()
	r := &Runner{
		clock: clock,
		tgt:   tgt,
		cfg:   cfg,
		gen:   NewGen(cfg.Seed, cfg.Mix, cfg.Keys),
	}
	r.tickFn = r.tick
	return r
}

// Start schedules the arrival process. The measure window is
// [now+Warmup, now+Warmup+Measure); issuing stops at window end but
// in-flight and queued ops run to completion (and still record
// against their intended times).
func (r *Runner) Start() {
	start := r.clock.Now()
	mStart := start.Add(r.cfg.Warmup)
	r.rec = newRecorder(mStart, mStart.Add(r.cfg.Measure))
	r.issueEnd = mStart.Add(r.cfg.Measure)
	r.clock.Schedule(0, r.tickFn)
}

// tick is one arrival: generate, dispatch, re-arm.
func (r *Runner) tick() {
	now := r.clock.Now()
	if now >= r.issueEnd {
		return
	}
	r.dispatch(r.gen.Next(now))
	r.clock.Schedule(r.cfg.Arrival.gap(r.gen.Rand()), r.tickFn)
}

func (r *Runner) dispatch(op Op) {
	if r.rec.inWindow(op.Intended) {
		r.counters.OpsGenerated++
		switch op.Kind {
		case OpRead:
			r.counters.Reads++
		case OpWrite:
			r.counters.Writes++
		case OpAcquireRelease:
			r.counters.AcqRels++
		case OpInvoke:
			r.counters.Invokes++
		}
		if op.Cold {
			r.counters.ColdOps++
		}
	}
	if r.cfg.MaxOutstanding > 0 && r.outstanding >= r.cfg.MaxOutstanding {
		if r.rec.inWindow(op.Intended) {
			r.counters.OpsQueued++
		}
		r.backlog = append(r.backlog, op)
		return
	}
	r.issue(op)
}

func (r *Runner) issue(op Op) {
	r.outstanding++
	if r.rec.inWindow(op.Intended) {
		r.counters.OpsIssued++
	}
	var p *issued
	if k := len(r.free) - 1; k >= 0 {
		p, r.free = r.free[k], r.free[:k]
	} else {
		p = &issued{r: r}
		p.completeFn = p.complete
	}
	p.op = op
	r.tgt.Issue(op, p.completeFn)
}

// complete is an op's bound completion. It recycles the record first,
// so the op it issues from the backlog reuses it.
func (p *issued) complete(err error) {
	r, op := p.r, p.op
	r.free = append(r.free, p)
	r.outstanding--
	now := r.clock.Now()
	if r.rec.inWindow(op.Intended) {
		if err != nil {
			r.counters.OpsFailed++
		} else {
			r.counters.OpsCompleted++
		}
	}
	if err == nil {
		r.rec.observe(op, now)
	}
	// A completion frees a slot: issue the oldest queued op, which
	// keeps its original intended time.
	if r.backlogHead < len(r.backlog) {
		next := r.backlog[r.backlogHead]
		r.backlog[r.backlogHead] = Op{}
		r.backlogHead++
		if r.backlogHead == len(r.backlog) {
			r.backlog = r.backlog[:0]
			r.backlogHead = 0
		}
		r.issue(next)
	}
}

// Result is a finished run's aggregate view.
type Result struct {
	Counters Counters
	Latency  telemetry.Summary
	Measure  netsim.Duration
}

// GoodputPerSec is successful completions per second of measure window.
func (res Result) GoodputPerSec() float64 {
	if res.Measure <= 0 {
		return 0
	}
	return float64(res.Counters.OpsCompleted) * float64(netsim.Second) / float64(res.Measure)
}

// Result snapshots the run (call after draining the simulation).
func (r *Runner) Result() Result {
	return Result{
		Counters: r.counters,
		Latency:  r.rec.Hist().Summarize(),
		Measure:  r.cfg.Measure,
	}
}

// Hist exposes the latency histogram.
func (r *Runner) Hist() *telemetry.Histogram { return r.rec.Hist() }
