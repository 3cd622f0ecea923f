// Package prefetch implements reachability-driven prefetching (§3.1):
// the Foreign Object Table gives the system a translucent view of each
// object's outgoing references — "a reachability graph for each
// object. This graph can be used by the system to perform prefetching
// based on data identity and actual reachability instead of some proxy
// for identity (e.g., adjacency)".
//
// When an object is fetched, the prefetcher walks its FOT edges and
// asynchronously acquires referenced objects up to a depth and byte
// budget, so subsequent dereferences hit the local store.
package prefetch

import (
	"repro/internal/future"
	"repro/internal/object"
	"repro/internal/oid"
)

// Fetcher acquires objects (satisfied by coherence.Node).
type Fetcher interface {
	AcquireShared(obj oid.ID) *future.Future[*object.Object]
}

// Config tunes the prefetcher.
type Config struct {
	// MaxDepth bounds the reachability walk (default 1: direct
	// references only).
	MaxDepth int
	// BudgetBytes bounds the total size prefetched per trigger
	// (default 1 MiB).
	BudgetBytes int
	// MaxObjects bounds the object count per trigger (default 64).
	MaxObjects int
}

func (c *Config) fill() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 1
	}
	if c.BudgetBytes == 0 {
		c.BudgetBytes = 1 << 20
	}
	if c.MaxObjects == 0 {
		c.MaxObjects = 64
	}
}

// Counters aggregates prefetcher statistics.
type Counters struct {
	Triggers      uint64
	Issued        uint64
	AlreadyLocal  uint64
	BudgetStops   uint64
	DepthStops    uint64
	FetchFailures uint64
}

// Prefetcher walks reachability graphs and warms the local store.
type Prefetcher struct {
	fetcher Fetcher
	has     func(oid.ID) bool
	cfg     Config

	counters Counters
	// inflight suppresses duplicate prefetches of the same object.
	inflight map[oid.ID]bool
}

// New creates a prefetcher. has reports local presence (typically
// store.Contains).
func New(f Fetcher, has func(oid.ID) bool, cfg Config) *Prefetcher {
	cfg.fill()
	return &Prefetcher{fetcher: f, has: has, cfg: cfg, inflight: make(map[oid.ID]bool)}
}

// Counters returns a copy of the statistics.
func (p *Prefetcher) Counters() Counters { return p.counters }

// walkState tracks one trigger's budget.
type walkState struct {
	budget  int
	objects int
}

// OnFetch triggers prefetching from a newly acquired object's
// reachability graph.
func (p *Prefetcher) OnFetch(o *object.Object) {
	p.counters.Triggers++
	st := &walkState{budget: p.cfg.BudgetBytes, objects: p.cfg.MaxObjects}
	p.walk(o, 1, st)
}

func (p *Prefetcher) walk(o *object.Object, depth int, st *walkState) {
	if depth > p.cfg.MaxDepth {
		p.counters.DepthStops++
		return
	}
	for _, id := range o.Reachable() {
		if p.has != nil && p.has(id) {
			p.counters.AlreadyLocal++
			continue
		}
		if p.inflight[id] {
			continue
		}
		if st.objects <= 0 || st.budget <= 0 {
			p.counters.BudgetStops++
			return
		}
		st.objects--
		p.inflight[id] = true
		p.counters.Issued++
		id := id
		depth := depth
		p.fetcher.AcquireShared(id).Then(func(fetched *object.Object, err error) {
			delete(p.inflight, id)
			if err != nil {
				p.counters.FetchFailures++
				return
			}
			st.budget -= fetched.Size()
			if st.budget > 0 && depth < p.cfg.MaxDepth {
				p.walk(fetched, depth+1, st)
			}
		})
	}
}
