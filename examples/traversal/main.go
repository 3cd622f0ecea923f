// Traversal: walking a remote linked data structure.
//
// §1 names "the invoker may wish to traverse a remote data structure"
// as a pattern RPC handles poorly: every hop is either a dedicated RPC
// round trip or bespoke server code. With first-class references the
// client just follows pointers, and the reachability-graph prefetcher
// (§3.1) hides the per-hop latency.
//
// Three ways to walk the same 48-node remote list:
//
//	rpc:        one "get node" RPC per hop (location-centric baseline)
//	refs:       dereference global pointers, prefetch off
//	refs+pf:    the same, with the FOT-driven prefetcher on
//
//	go run ./examples/traversal
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/prefetch"
)

const (
	chainLen  = 48
	valueSize = 2048
	thinkTime = 250 * netsim.Microsecond // per-hop application work
)

func main() {
	fmt.Printf("walking a %d-node linked structure on a remote host "+
		"(%.0fµs of app work per hop)\n\n", chainLen, float64(thinkTime)/1000)
	for _, mode := range []string{"rpc", "refs", "refs+pf"} {
		elapsed, sum := walk(mode)
		fmt.Printf("%-8s total=%9.1fµs per-hop=%6.1fµs checksum=%d\n",
			mode, elapsed.Microseconds(), elapsed.Microseconds()/chainLen, sum)
	}
}

// walk builds a fresh cluster, a chain on node 1, and traverses it
// from node 0, returning elapsed virtual time and a content checksum.
func walk(mode string) (netsim.Duration, uint64) {
	cfg := core.Config{Seed: 3, Scheme: core.SchemeE2E}
	if mode == "refs+pf" {
		cfg.Prefetch = &prefetch.Config{MaxDepth: 3, MaxObjects: 8, BudgetBytes: 4 << 20}
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client, server := cluster.Node(0), cluster.Node(1)

	// Build the chain: each node holds a value and a reference (or a
	// null pointer at the tail). The reference slot is the first
	// allocation, so every node looks the same.
	objs := make([]*object.Object, chainLen)
	var refSlot, valSlot uint64
	for i := range objs {
		o, err := server.CreateObject(valueSize + 512)
		if err != nil {
			log.Fatal(err)
		}
		objs[i] = o
	}
	for i, o := range objs {
		rs, _ := o.Alloc(8, 8)
		vs, _ := o.Alloc(8, 8)
		if i == 0 {
			refSlot, valSlot = rs, vs
		}
		o.PutUint64(vs, uint64(i)*uint64(i)+7)
		if i+1 < chainLen {
			o.StoreRef(rs, objs[i+1].ID(), 0, object.FlagRead)
		} else {
			o.PutPtr(rs, 0)
		}
	}
	// The RPC baseline: the server exposes a "get node by ID" method
	// returning (value, next-ID) — the shoehorned reference passing
	// of §2 ("we must shoehorn this functionality into the
	// application logic and the RPC's APIs").
	server.RPCServer.Register("list.get", func(args []byte) ([]byte, error) {
		id, err := oid.FromBytes(args)
		if err != nil {
			return nil, err
		}
		e, ok := server.Store.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("list.get: no node %s", id.Short())
		}
		val, _ := e.Obj.Uint64(valSlot)
		next, _ := e.Obj.LoadRef(refSlot)
		out := make([]byte, 8+oid.Size)
		binary.BigEndian.PutUint64(out[:8], val)
		next.Obj.PutBytes(out[8:])
		return out, nil
	})
	cluster.Run()

	var sum uint64
	start := cluster.Sim.Now()
	end := start

	switch mode {
	case "rpc":
		var step func(id oid.ID)
		step = func(id oid.ID) {
			raw := id.Bytes()
			client.RPCClient.Call(server.Station, "list.get", raw[:], func(res []byte, err error) {
				if err != nil {
					log.Fatal(err)
				}
				sum += binary.BigEndian.Uint64(res[:8])
				next, _ := oid.FromBytes(res[8:])
				end = cluster.Sim.Now()
				if next.IsNil() {
					return
				}
				cluster.Sim.Schedule(thinkTime, func() { step(next) })
			})
		}
		step(objs[0].ID())
	default: // refs, refs+pf
		// Promise style: each hop's Deref chains the next hop via Then —
		// following pointers reads like straight-line code.
		var step func(g object.Global)
		step = func(g object.Global) {
			client.Deref(g).Then(func(o *object.Object, err error) {
				if err != nil {
					log.Fatal(err)
				}
				val, _ := o.Uint64(valSlot)
				sum += val
				next, _ := o.LoadRef(refSlot)
				end = cluster.Sim.Now()
				if next.IsNil() {
					return
				}
				cluster.Sim.Schedule(thinkTime, func() { step(next) })
			})
		}
		step(object.Global{Obj: objs[0].ID()})
	}
	cluster.Run()
	return end.Sub(start), sum
}
