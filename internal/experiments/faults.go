package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FaultClass names one scripted fault scenario.
type FaultClass string

// Fault classes swept by FaultRecovery.
const (
	// FaultCrash fail-stops the home node; replicas must be promoted.
	FaultCrash FaultClass = "crash"
	// FaultFlap takes the home's link down for 2ms, then back.
	FaultFlap FaultClass = "flap"
	// FaultWipe clears every switch's match-action tables.
	FaultWipe FaultClass = "wipe"
)

// faultClasses are the classes E8 publishes.
var faultClasses = []FaultClass{FaultCrash, FaultFlap, FaultWipe}

// faultSchemes are the schemes E8 runs against, in row order.
var faultSchemes = []core.Scheme{core.SchemeE2E, core.SchemeController}

// faultObjects is the replicated working-set size.
const faultObjects = 8

// FaultsConfig tunes the fault-recovery experiment.
type FaultsConfig struct {
	// Seed drives all randomness (bit-identical replays).
	Seed int64
	// Accesses is the closed-loop read count.
	Accesses int
	// Classes are the fault classes swept.
	Classes []FaultClass
}

// FaultsRow is one (scheme, fault class) measurement.
type FaultsRow struct {
	Scheme   string
	Fault    string
	Accesses int
	// Failures counts accesses that never succeeded (want 0: every
	// in-flight access eventually completes).
	Failures int
	// Latency is the per-access completion-time histogram (µs).
	Latency telemetry.Summary
	// Retransmits is the per-access retransmit-count histogram.
	Retransmits telemetry.Summary
	// RecoveryUS is virtual time from the fault firing to completion
	// of the first access issued at-or-after it.
	RecoveryUS float64
	// DegradedAccesses is how many accesses needed at least one
	// application-level retry.
	DegradedAccesses int
	// FramesPerAccess is fabric message amplification over the run.
	FramesPerAccess float64
	// Promotions/Lost summarize the injector's recovery actions.
	Promotions int
	Lost       int
}

func (r FaultsRow) cells() []any {
	return []any{"scheme", r.Scheme, "fault", r.Fault, "accesses", r.Accesses, "failed", r.Failures,
		"degraded", r.DegradedAccesses, "mean_us", r.Latency.Mean, "p99_us", r.Latency.P99,
		"max_us", r.Latency.Max, "recovery_us", r.RecoveryUS,
		"rtx_mean", fixed(2, r.Retransmits.Mean), "rtx_max", fixed(0, r.Retransmits.Max),
		"frames_per_acc", r.FramesPerAccess, "promoted", r.Promotions, "lost", r.Lost}
}

// faultAt is when the scripted fault fires, relative to arming; the
// access loop starts at the same moment, so roughly the first fifth of
// the accesses land pre-fault (the baseline) and the rest ride through
// the fault and recovery.
const faultAt = 3 * netsim.Millisecond

// flapLen is the link outage length for FaultFlap — longer than a
// request timeout (so the fault is visible at the transport) but
// shorter than the workload, so retransmits plus one app retry always
// bridge it.
const flapLen = 2 * netsim.Millisecond

// FaultRecovery is E8, the fault-injection experiment: §5 claims the
// data-centric model can "mask failures" — replicated objects keep
// their identity across a home's death, the network re-learns routes,
// and retransmit backoff bridges link outages. It scripts one fault
// per class (node crash, link flap, switch table wipe) against each
// discovery scheme while a closed-loop reader hammers replicated
// objects, and measures what the application saw: access-latency and
// per-access-retransmit histograms, the recovery time from fault
// injection to the first clean post-fault access, and message
// amplification (fabric frames per access). It returns one row per
// (scheme, fault class).
func FaultRecovery(cfg FaultsConfig) ([]FaultsRow, error) {
	return sweep(grid(faultSchemes, cfg.Classes), func(p pair[core.Scheme, FaultClass]) (FaultsRow, error) { return faultRun(cfg, p.a, p.b) })
}

// retransmits is the cluster's transport retransmissions so far.
func retransmits(c *core.Cluster) uint64 { return c.Telemetry().Value("transport.retransmits") }

func faultRun(cfg FaultsConfig, scheme core.Scheme, class FaultClass) (FaultsRow, error) {
	c, err := core.NewCluster(core.Config{Seed: cfg.Seed, Scheme: scheme,
		Discovery: discovery.Config{Timeout: 300 * netsim.Microsecond}})
	if err != nil {
		return FaultsRow{}, err
	}
	home, replica, reader := c.Node(1), c.Node(2), c.Node(0)

	// Working set: objects homed at node 1, each with a surviving
	// replica at node 2 so crashes are maskable.
	objs := make([]oid.ID, faultObjects)
	var off uint64
	for i := range objs {
		o, err := home.CreateObject(4096)
		if err != nil {
			return FaultsRow{}, err
		}
		slot, _ := o.AllocString("fault-payload")
		if i == 0 {
			off = slot
		}
		objs[i] = o.ID()
		repOK := false
		c.ReplicateObject(o.ID(), replica, func(err error) { repOK = err == nil })
		c.Run()
		if !repOK {
			return FaultsRow{}, fmt.Errorf("replicating object %d failed", i)
		}
	}
	// Warm the reader's resolver so faults hit live cached state.
	for _, id := range objs {
		warm := false
		reader.Coherence.ReadAt(id, off+8, 13).Then(func(_ []byte, err error) {
			warm = err == nil
		})
		c.Run()
		if !warm {
			return FaultsRow{}, fmt.Errorf("warm read failed")
		}
	}
	c.ResetStats()

	inj := fault.NewInjector(c)
	sched := fault.NewSchedule()
	switch class {
	case FaultCrash:
		sched.CrashNode(faultAt, 1)
	case FaultFlap:
		sched.FlapLink(faultAt, 1, flapLen)
	case FaultWipe:
		sched.WipeTables(faultAt, -1)
	default:
		return FaultsRow{}, fmt.Errorf("unknown fault class %q", class)
	}
	armedAt := c.Sim.Now()
	faultTime := armedAt.Add(faultAt)
	inj.Arm(sched)

	var (
		lat       = telemetry.NewHistogram()
		rtx       = telemetry.NewHistogram()
		failures  = 0
		degraded  = 0
		recovered = false
		recovery  float64
	)
	// Closed loop with pacing: a new read every interAccess, each
	// retried at the application until it succeeds (bounded). The
	// retry backoff doubles, so even the crash class — which must wait
	// out a request timeout plus the promotion delay — converges.
	const (
		interAccess = 75 * netsim.Microsecond
		maxAttempts = 10
		retryDelay  = 250 * netsim.Microsecond
	)
	err = workload.RunToCompletion(c, cfg.Accesses, interAccess, func(i int, next func()) {
		obj := objs[i%len(objs)]
		start := c.Sim.Now()
		preRtx := retransmits(c)
		workload.Retry(c.Sim, retryDelay, maxAttempts, func(done func(error)) {
			reader.Coherence.ReadAt(obj, off+8, 13).Then(func(_ []byte, err error) { done(err) })
		}, func(tries int, err error) {
			if err != nil {
				failures++
			} else {
				if tries > 1 {
					degraded++
				}
				end := c.Sim.Now()
				lat.Observe(us(end.Sub(start)))
				rtx.Observe(float64(retransmits(c) - preRtx))
				if !recovered && start >= faultTime {
					recovered = true
					recovery = us(end.Sub(faultTime))
				}
			}
			next()
		})
	})
	if err != nil {
		return FaultsRow{}, err
	}

	row := FaultsRow{
		Scheme:           scheme.String(),
		Fault:            string(class),
		Accesses:         cfg.Accesses,
		Failures:         failures,
		Latency:          lat.Summarize(),
		Retransmits:      rtx.Summarize(),
		RecoveryUS:       recovery,
		DegradedAccesses: degraded,
		FramesPerAccess:  float64(c.Telemetry().Value("net.frames_sent")) / float64(cfg.Accesses),
		Promotions:       inj.Promotions(),
		Lost:             len(inj.Lost()),
	}
	return row, nil
}
