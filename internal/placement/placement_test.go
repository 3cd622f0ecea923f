package placement

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/oid"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(61)

const gbit = 1_000_000_000

// paperScenario builds the §2 cast: Alice (weak edge), Bob (loaded
// cloud, holds the model shard), Carol (idle cloud).
func paperScenario() (*Engine, *Request) {
	e := NewEngine()
	e.SetNode(NodeInfo{Station: 1, ComputeRate: 1, Load: 0, LinkBitsPerSec: 100_000_000})   // Alice
	e.SetNode(NodeInfo{Station: 2, ComputeRate: 10, Load: 0.95, LinkBitsPerSec: 10 * gbit}) // Bob
	e.SetNode(NodeInfo{Station: 3, ComputeRate: 10, Load: 0.05, LinkBitsPerSec: 10 * gbit}) // Carol
	req := &Request{
		Code:        DataItem{Obj: gen.New(), Size: 64 << 10, Location: 1},
		Data:        []DataItem{{Obj: gen.New(), Size: 512 << 20, Location: 2}}, // shard on Bob
		Invoker:     1,
		ComputeWork: 5,
		ResultSize:  1 << 10,
	}
	return e, req
}

func TestChoosePicksCarol(t *testing.T) {
	e, req := paperScenario()
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Executor != 3 {
		t.Fatalf("executor = %v, want Carol (3); candidates %+v", d.Executor, d.Candidates)
	}
	if len(d.Candidates) != 3 {
		t.Fatalf("candidates = %d", len(d.Candidates))
	}
	// Candidates sorted ascending by cost.
	for i := 1; i < len(d.Candidates); i++ {
		if d.Candidates[i-1].Total > d.Candidates[i].Total {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestDataGravityKeepsWorkOnBobWhenIdle(t *testing.T) {
	// If Bob is idle, moving half a gigabyte to Carol can't win.
	e, req := paperScenario()
	e.SetNode(NodeInfo{Station: 2, ComputeRate: 10, Load: 0.05, LinkBitsPerSec: 10 * gbit})
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Executor != 2 {
		t.Fatalf("executor = %v, want Bob (2)", d.Executor)
	}
	if d.Cost.DataTransfer != 0 {
		t.Fatalf("data transfer at Bob = %v", d.Cost.DataTransfer)
	}
}

func TestDavePowerfulEdgeRunsLocally(t *testing.T) {
	// §5: Dave has the resources to do the work locally — with the
	// data cached at Dave, local execution wins (no RPC mechanism
	// could express this).
	e, req := paperScenario()
	e.SetNode(NodeInfo{Station: 4, ComputeRate: 8, Load: 0, LinkBitsPerSec: gbit})
	req.Invoker = 4
	req.Code.Location = 4
	req.Data[0].CachedAt = []wire.StationID{4}
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Executor != 4 {
		t.Fatalf("executor = %v, want Dave (4)", d.Executor)
	}
	if d.Cost.BytesMoved != 0 {
		t.Fatalf("bytes moved = %d", d.Cost.BytesMoved)
	}
}

func TestPinnedExcluded(t *testing.T) {
	e, req := paperScenario()
	e.SetNode(NodeInfo{Station: 3, ComputeRate: 10, Load: 0.05, LinkBitsPerSec: 10 * gbit, Pinned: true})
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Executor == 3 {
		t.Fatal("pinned node selected")
	}
}

func TestNoCandidates(t *testing.T) {
	e := NewEngine()
	if _, err := e.Choose(&Request{}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
	e.SetNode(NodeInfo{Station: 1, Pinned: true})
	if _, err := e.Choose(&Request{}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("all-pinned err = %v", err)
	}
}

func TestCostBreakdownAccounting(t *testing.T) {
	e := NewEngine()
	e.SetNode(NodeInfo{Station: 5, ComputeRate: 2, Load: 0.5, LinkBitsPerSec: gbit})
	req := &Request{
		Code:        DataItem{Size: 1000, Location: 1},
		Data:        []DataItem{{Size: 2000, Location: 1}, {Size: 3000, Location: 5}},
		Invoker:     1,
		ComputeWork: 4,
		ResultSize:  500,
	}
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Cost
	// Data: only the 2000-byte item moves. Code moves. Result returns.
	if c.BytesMoved != 2000+1000+500 {
		t.Fatalf("BytesMoved = %d", c.BytesMoved)
	}
	if c.TransferCount != 2 {
		t.Fatalf("TransferCount = %d", c.TransferCount)
	}
	wantCompute := 4.0 / (2 * 0.5)
	if c.Compute != wantCompute {
		t.Fatalf("Compute = %v, want %v", c.Compute, wantCompute)
	}
	if c.Total != c.DataTransfer+c.CodeTransfer+c.Compute+c.ResultReturn {
		t.Fatal("Total != sum of parts")
	}
}

func TestInvokerPaysNoResultReturn(t *testing.T) {
	e := NewEngine()
	e.SetNode(NodeInfo{Station: 1, ComputeRate: 1, LinkBitsPerSec: gbit})
	req := &Request{Invoker: 1, ComputeWork: 1, ResultSize: 1 << 30}
	d, err := e.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost.ResultReturn != 0 {
		t.Fatal("local execution charged result return")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	e := NewEngine()
	for st := wire.StationID(5); st >= 1; st-- {
		e.SetNode(NodeInfo{Station: st, ComputeRate: 1, LinkBitsPerSec: gbit})
	}
	req := &Request{Invoker: 99, ComputeWork: 1}
	for i := 0; i < 10; i++ {
		d, err := e.Choose(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Executor != 1 {
			t.Fatalf("tie-break chose %v", d.Executor)
		}
	}
}

func TestNodeAccessors(t *testing.T) {
	e := NewEngine()
	e.SetNode(NodeInfo{Station: 7, ComputeRate: 3})
	if n, ok := e.nodes[7]; !ok || n.ComputeRate != 3 || len(e.nodes) != 1 {
		t.Fatalf("SetNode: candidates = %v", e.nodes)
	}
	e.RemoveNode(7)
	if len(e.nodes) != 0 {
		t.Fatal("RemoveNode")
	}
}

func TestPropertyChoiceIsMinimal(t *testing.T) {
	f := func(loads []uint8, dataSize uint32, work uint16) bool {
		if len(loads) == 0 {
			return true
		}
		if len(loads) > 8 {
			loads = loads[:8]
		}
		e := NewEngine()
		for i, l := range loads {
			e.SetNode(NodeInfo{
				Station:        wire.StationID(i + 1),
				ComputeRate:    1 + float64(l%5),
				Load:           float64(l%90) / 100,
				LinkBitsPerSec: gbit,
			})
		}
		req := &Request{
			Data:        []DataItem{{Size: int64(dataSize), Location: 1}},
			Invoker:     1,
			ComputeWork: float64(work),
		}
		d, err := e.Choose(req)
		if err != nil {
			return false
		}
		for _, c := range d.Candidates {
			if c.Total < d.Cost.Total {
				return false
			}
		}
		return d.Cost.Station == d.Executor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
