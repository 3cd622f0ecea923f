package core

import (
	"fmt"
	"reflect"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/placement"
	"repro/internal/realnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// validateRealnet refuses what the realnet backend could only ignore.
// Only the E2E discovery scheme works (it is destination-routed; the
// controller schemes program a fabric that does not exist here), and
// the sim-only structs — the simulated fabric and switch tables — must
// be left zero.
func (c *Config) validateRealnet() error {
	if c.Scheme != SchemeE2E {
		return fmt.Errorf("core: realnet backend supports only the e2e discovery scheme (got %s): controller schemes program simulated switch tables", c.Scheme)
	}
	for _, s := range []struct {
		name string
		v    any
	}{{"Fabric", c.Fabric}, {"Tables", c.Tables}} {
		v := reflect.ValueOf(s.v)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				return fmt.Errorf("core: %s.%s is sim-only (it configures the simulated fabric, which the realnet backend does not have); leave it unset", s.name, v.Type().Field(i).Name)
			}
		}
	}
	return nil
}

// fillRealnet substitutes realnet-scale timeouts where the caller left
// them at their defaults: wall-clock runs see kernel scheduling jitter
// the sim's 5µs-scale defaults were never meant for. Explicit settings
// are honored.
func (c *Config) fillRealnet() {
	if c.Transport.RetransmitTimeout == 0 {
		c.Transport.RetransmitTimeout = 2 * backend.Millisecond
	}
	if c.Transport.RetryBudget == 0 {
		c.Transport.RetryBudget = 250 * backend.Millisecond
	}
	if c.Transport.RequestTimeout == 0 {
		c.Transport.RequestTimeout = 50 * backend.Millisecond
	}
	if c.Discovery.Timeout == 0 {
		c.Discovery.Timeout = 50 * backend.Millisecond
	}
}

// newRealnetCluster builds the same node stack as newSimCluster over
// localhost UDP sockets: no switches, no controller, a full mesh of
// per-node sockets routed on the wire destination station.
func newRealnetCluster(cfg Config) (*Cluster, error) {
	rn := realnet.NewCluster()
	c := &Cluster{
		cfg:       cfg,
		rn:        rn,
		Clock:     rn.Clock(),
		gen:       oid.NewSeededGenerator(cfg.Seed + 1),
		meta:      make(map[oid.ID]*objMeta),
		Placement: placement.NewEngine(),
	}
	for i := 0; i < cfg.NumNodes; i++ {
		st := wire.StationID(i + 1)
		link, err := rn.NewLink(fmt.Sprintf("node%d", i), st)
		if err != nil {
			rn.Close()
			return nil, err
		}
		n, err := newNode(c, link, st)
		if err != nil {
			rn.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.Tracer = trace.NewRecorder(c.Clock, cfg.Trace)
	for _, n := range c.Nodes {
		n.initResolver(cfg)
	}
	rn.Start()
	return c, nil
}
