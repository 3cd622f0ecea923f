package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
)

// SweepConfig describes a load sweep: for each discovery scheme, ramp
// the offered rate across Rates, run a fresh deterministic cluster at
// each point, and locate the saturation knee.
type SweepConfig struct {
	// Seed derives every per-point cluster and generator seed.
	Seed int64
	// Schemes to sweep (default E2E and Controller).
	Schemes []core.Scheme
	// Rates is the offered load ladder in ops/sec.
	Rates []float64
	// Runner is every point's runner configuration; each point sets its
	// own Seed and Arrival.RatePerSec over it.
	Runner Config
	// Cluster is every point's cluster configuration; each point sets
	// its own Seed and Scheme over it.
	Cluster core.Config
	// Target shapes the object population.
	Target ClusterConfig
}

// Saturation criteria.
const (
	// kneeGoodputFrac: a point saturates when completed ops fall below
	// this fraction of generated ops. Comparing against generated
	// rather than nominal offered load keeps Poisson arrival noise out
	// of the criterion: after a full drain every generated op either
	// completed or failed, so the fraction is exactly the success rate.
	kneeGoodputFrac = 0.9
	// kneeP99Mult: a point saturates when P99 exceeds this multiple of
	// the lowest-rate point's P99.
	kneeP99Mult = 5
)

func (c *SweepConfig) fill() {
	if len(c.Schemes) == 0 {
		c.Schemes = []core.Scheme{core.SchemeE2E, core.SchemeController}
	}
	if c.Runner.Warmup == 0 {
		c.Runner.Warmup = 10 * netsim.Millisecond
	}
	if c.Runner.Measure == 0 {
		c.Runner.Measure = 50 * netsim.Millisecond
	}
}

// Point is one (scheme, rate) measurement.
type Point struct {
	OfferedPerSec float64 `json:"offered_ops_per_sec"`
	Generated     uint64  `json:"generated_ops"`
	Issued        uint64  `json:"issued_ops"`
	Queued        uint64  `json:"queued_ops"`
	Completed     uint64  `json:"completed_ops"`
	Failed        uint64  `json:"failed_ops"`
	ColdOps       uint64  `json:"cold_ops"`
	GoodputPerSec float64 `json:"goodput_ops_per_sec"`
	MeanUS        float64 `json:"mean_us"`
	P50US         float64 `json:"p50_us"`
	P90US         float64 `json:"p90_us"`
	P99US         float64 `json:"p99_us"`
	P999US        float64 `json:"p999_us"`
	MaxUS         float64 `json:"max_us"`
	FramesSent    uint64  `json:"frames_sent"`
	FramesDropped uint64  `json:"frames_dropped"`
}

// Knee marks where a scheme saturates: the last point still meeting
// both the goodput and P99 criteria. Index is -1 when even the first
// point fails; Reason says which criterion the next point broke
// ("goodput_plateau", "p99_blowup") or "not_reached".
type Knee struct {
	Index         int     `json:"index"`
	OfferedPerSec float64 `json:"offered_ops_per_sec"`
	GoodputPerSec float64 `json:"goodput_ops_per_sec"`
	P99US         float64 `json:"p99_us"`
	Reason        string  `json:"reason"`
}

// SchemeSweep is one scheme's rate ladder.
type SchemeSweep struct {
	Scheme string  `json:"scheme"`
	Points []Point `json:"points"`
	Knee   Knee    `json:"knee"`
}

// ReportHeader opens every BENCH_*.json artifact. GeneratedAt is
// stamped by the caller *after* the run (never inside it), so two
// same-seed report bodies are byte-identical with the stamp excluded.
type ReportHeader struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at,omitempty"`
	Seed          int64  `json:"seed"`
}

// Report is the sweep artifact (BENCH_load.json). Everything in it is
// deterministic from the config.
type Report struct {
	ReportHeader
	Arrival        string        `json:"arrival"`
	Mix            Mix           `json:"mix"`
	KeyDist        string        `json:"key_dist"`
	Rates          []float64     `json:"rates_ops_per_sec"`
	NumNodes       int           `json:"num_nodes"`
	LinkBitsPerSec int64         `json:"link_bits_per_sec"`
	WarmupUS       float64       `json:"warmup_us"`
	MeasureUS      float64       `json:"measure_us"`
	Schemes        []SchemeSweep `json:"schemes"`
}

// Sweep runs the full grid. Each point gets a fresh cluster seeded
// from (Seed, rate index, scheme), so points are independent and any
// subset of the grid reproduces exactly.
func Sweep(cfg SweepConfig) (*Report, error) {
	cfg.fill()
	rep := &Report{
		ReportHeader:   ReportHeader{SchemaVersion: 1, Seed: cfg.Seed},
		Arrival:        cfg.Runner.Arrival.Kind.String(),
		Mix:            cfg.Runner.Mix,
		KeyDist:        cfg.Runner.Keys.Dist.String(),
		Rates:          cfg.Rates,
		NumNodes:       cfg.Cluster.NumNodes,
		LinkBitsPerSec: cfg.Cluster.LinkBitsPerSec,
		WarmupUS:       cfg.Runner.Warmup.Microseconds(),
		MeasureUS:      cfg.Runner.Measure.Microseconds(),
	}
	rep.Mix.fill()
	for _, scheme := range cfg.Schemes {
		ss := SchemeSweep{Scheme: scheme.String()}
		for i, rate := range cfg.Rates {
			pt, err := runPoint(cfg, scheme, i, rate)
			if err != nil {
				return nil, err
			}
			ss.Points = append(ss.Points, pt)
		}
		ss.Knee = detectKnee(ss.Points)
		rep.Schemes = append(rep.Schemes, ss)
	}
	return rep, nil
}

// runPoint measures one (scheme, rate) cell on a fresh cluster.
func runPoint(cfg SweepConfig, scheme core.Scheme, i int, rate float64) (Point, error) {
	ccfg := cfg.Cluster
	ccfg.Seed, ccfg.Scheme = cfg.Seed+int64(i)*1000+int64(scheme), scheme
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		return Point{}, err
	}
	tgt, err := NewClusterTarget(cl, cfg.Target)
	if err != nil {
		return Point{}, err
	}
	if err := tgt.Warm(); err != nil {
		return Point{}, fmt.Errorf("%s at %.0f ops/s: %w", scheme, rate, err)
	}
	base := cl.Net.Stats()

	rcfg := cfg.Runner
	rcfg.Seed, rcfg.Arrival.RatePerSec = cl.Sim.Rand().Int63(), rate
	run := New(cl.Sim, tgt, rcfg)
	run.Start()
	// Full drain: completions landing after the window still record
	// against their intended start times.
	cl.Run()

	res := run.Result()
	net := cl.Net.Stats()
	return Point{
		OfferedPerSec: rate,
		Generated:     res.Counters.OpsGenerated,
		Issued:        res.Counters.OpsIssued,
		Queued:        res.Counters.OpsQueued,
		Completed:     res.Counters.OpsCompleted,
		Failed:        res.Counters.OpsFailed,
		ColdOps:       res.Counters.ColdOps,
		GoodputPerSec: res.GoodputPerSec(),
		MeanUS:        res.Latency.Mean,
		P50US:         res.Latency.P50,
		P90US:         res.Latency.P90,
		P99US:         res.Latency.P99,
		P999US:        res.Latency.P999,
		MaxUS:         res.Latency.Max,
		FramesSent:    net.FramesSent - base.FramesSent,
		FramesDropped: net.FramesDropped - base.FramesDropped,
	}, nil
}

// detectKnee scans the ladder for the first saturated point.
func detectKnee(points []Point) Knee {
	if len(points) == 0 {
		return Knee{Index: -1, Reason: "no_points"}
	}
	baseP99 := points[0].P99US
	bad, reason := -1, ""
	for j, p := range points {
		okGoodput := p.Generated == 0 ||
			float64(p.Completed) >= kneeGoodputFrac*float64(p.Generated)
		okP99 := baseP99 <= 0 || p.P99US <= kneeP99Mult*baseP99
		if !okP99 {
			bad, reason = j, "p99_blowup"
			break
		}
		if !okGoodput {
			bad, reason = j, "goodput_plateau"
			break
		}
	}
	if bad < 0 {
		last := points[len(points)-1]
		return Knee{
			Index:         len(points) - 1,
			OfferedPerSec: last.OfferedPerSec,
			GoodputPerSec: last.GoodputPerSec,
			P99US:         last.P99US,
			Reason:        "not_reached",
		}
	}
	if bad == 0 {
		return Knee{Index: -1, Reason: reason}
	}
	k := points[bad-1]
	return Knee{
		Index:         bad - 1,
		OfferedPerSec: k.OfferedPerSec,
		GoodputPerSec: k.GoodputPerSec,
		P99US:         k.P99US,
		Reason:        reason,
	}
}
