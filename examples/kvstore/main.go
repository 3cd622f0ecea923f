// KV store: the workload RPC is actually good at — and parity.
//
// §2 concedes that "RPC shines in situations where ... an RPC endpoint
// either fronts large data [or] large compute ... with small arguments
// and return values" — the fronted key-value store being the canonical
// case (§3.1 calls it "a fronted key-value store service").
//
// This example runs the same GET workload both ways over identical
// simulated hardware:
//
//	rpc:   classic location-centric service: GET(key) → value
//	refs:  a directory object maps keys to value-object references;
//	       clients read through references (bus-style loads)
//
// Both are ~1 round trip for cache-cold small values: the data-centric
// model subsumes the RPC sweet spot rather than regressing it.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

const (
	numKeys   = 64
	valueLen  = 128
	numReads  = 400
	seedValue = 9
)

func main() {
	fmt.Printf("GET workload: %d keys, %dB values, %d reads\n\n", numKeys, valueLen, numReads)
	for _, mode := range []string{"rpc", "refs"} {
		h := run(mode)
		s := h.Summarize()
		fmt.Printf("%-5s mean=%6.1fµs p50=%6.1fµs p99=%6.1fµs\n",
			mode, s.Mean, s.P50, s.P99)
	}
}

func value(k int) string {
	return fmt.Sprintf("value-%d-%0*d", k, valueLen-16, seedValue*k)
}

func run(mode string) *telemetry.Histogram {
	cluster, err := core.NewCluster(core.Config{Seed: 11, Scheme: core.SchemeE2E})
	if err != nil {
		log.Fatal(err)
	}
	client, server := cluster.Node(0), cluster.Node(1)

	// Server-side state for both modes.
	kv := make(map[string]string, numKeys)
	keys := make([]string, 0, numKeys)
	for i := 0; i < numKeys; i++ {
		k := fmt.Sprintf("key-%03d", i)
		kv[k] = value(i)
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// RPC mode: one service method.
	server.RPCServer.Register("kv.get", func(args []byte) ([]byte, error) {
		v, ok := kv[string(args)]
		if !ok {
			return nil, fmt.Errorf("no such key")
		}
		return []byte(v), nil
	})

	// Object mode: a directory object of (key, ref) pairs plus one
	// object per value. The client reads values *through references*
	// without a service API in the way — and could equally scan,
	// prefetch, or cache them, which the RPC surface cannot express
	// without new endpoints ("one need only look at the many S3 APIs
	// available", §3.1).
	valueRefs := make(map[string]object.Global, numKeys)
	for _, k := range keys {
		vo, err := server.CreateObject(2048)
		if err != nil {
			log.Fatal(err)
		}
		off, _ := vo.AllocString(kv[k])
		valueRefs[k] = object.Global{Obj: vo.ID(), Off: off}
	}
	cluster.Run()

	// Closed-loop reads, uniformly random keys.
	hist := telemetry.NewHistogram()
	rng := cluster.Sim.Rand()
	done := 0
	var issue func()
	issue = func() {
		if done >= numReads {
			return
		}
		done++
		k := keys[rng.Intn(len(keys))]
		start := cluster.Sim.Now()
		finish := func(got string, err error) {
			if err != nil {
				log.Fatal(err)
			}
			if got != kv[k] {
				log.Fatalf("wrong value for %s", k)
			}
			hist.Observe(float64(cluster.Sim.Now().Sub(start)) / float64(netsim.Microsecond))
			issue()
		}
		switch mode {
		case "rpc":
			client.RPCClient.Call(server.Station, "kv.get", []byte(k), func(res []byte, err error) {
				finish(string(res), err)
			})
		default:
			ref := valueRefs[k]
			// Length-prefixed string: read the 8-byte prefix plus the
			// value in one bus-style load.
			client.Coherence.ReadAt(ref.Obj, ref.Off, 8+len(kv[k])).Then(func(b []byte, err error) {
				if err != nil {
					finish("", err)
					return
				}
				d := serde.NewDecoder(b)
				n := d.Uint64()
				finish(string(b[8:8+n]), d.Err())
			})
		}
	}
	issue()
	cluster.Run()
	return hist
}
