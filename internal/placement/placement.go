// Package placement implements the rendezvous engine of §3.1 and §5:
// "the placement decision would be made by the system". Given a
// requested computation — a code reference, the data references it
// touches, and where the invoker sits — the engine costs out running
// the computation at each candidate node (data transfer, code
// transfer, compute under load, result return) and picks the cheapest.
//
// Because movement is byte-level copy in the object model, transfer
// costs are linear in object size with no deserialization surcharge,
// which is exactly what makes them "included in cost-models more
// easily" (§3.1 Serialization).
package placement

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/oid"
	"repro/internal/wire"
)

// ErrNoCandidates reports an empty candidate set.
var ErrNoCandidates = errors.New("placement: no candidate nodes")

// NodeInfo describes one candidate executor.
type NodeInfo struct {
	Station wire.StationID
	// ComputeRate is relative work units per second (an idle cloud
	// server might be 10, a phone 1).
	ComputeRate float64
	// Load is current utilization in [0,1); available compute scales
	// by (1-Load).
	Load float64
	// LinkBitsPerSec is the node's access bandwidth.
	LinkBitsPerSec int64
	// Pinned excludes the node from selection (capacity constraint).
	Pinned bool
}

// DataItem is one object a computation touches.
type DataItem struct {
	Obj      oid.ID
	Size     int64
	Location wire.StationID
	// CachedAt lists stations already holding a valid copy (transfer
	// is free there).
	CachedAt []wire.StationID
}

// availableAt reports whether the item needs no transfer to st.
func (d *DataItem) availableAt(st wire.StationID) bool {
	if d.Location == st {
		return true
	}
	for _, c := range d.CachedAt {
		if c == st {
			return true
		}
	}
	return false
}

// Request describes a computation to place.
type Request struct {
	// Code is the code object (code mobility: it transfers like data).
	Code DataItem
	// Data are the argument objects.
	Data []DataItem
	// Invoker receives the result.
	Invoker wire.StationID
	// ComputeWork is the abstract work-unit count.
	ComputeWork float64
	// ResultSize is the result bytes returned to the invoker.
	ResultSize int64
}

// CandidateCost is the cost breakdown for one candidate.
type CandidateCost struct {
	Station       wire.StationID
	DataTransfer  float64 // seconds
	CodeTransfer  float64
	Compute       float64
	ResultReturn  float64
	Total         float64
	BytesMoved    int64
	TransferCount int
}

// Decision is the engine's choice.
type Decision struct {
	Executor   wire.StationID
	Cost       CandidateCost
	Candidates []CandidateCost // sorted by total cost ascending
}

// Engine holds the candidate set.
type Engine struct {
	nodes map[wire.StationID]NodeInfo
}

// NewEngine creates an empty engine.
func NewEngine() *Engine {
	return &Engine{nodes: make(map[wire.StationID]NodeInfo)}
}

// SetNode registers or updates a candidate.
func (e *Engine) SetNode(info NodeInfo) {
	e.nodes[info.Station] = info
}

// RemoveNode deregisters a candidate.
func (e *Engine) RemoveNode(st wire.StationID) {
	delete(e.nodes, st)
}

// transferSeconds costs moving n bytes onto a node.
func transferSeconds(n int64, bw int64) float64 {
	if n <= 0 {
		return 0
	}
	if bw <= 0 {
		bw = 1_000_000_000
	}
	return float64(n*8) / float64(bw)
}

// costAt computes the full cost breakdown of executing req at node.
func costAt(req *Request, node NodeInfo) CandidateCost {
	c := CandidateCost{Station: node.Station}
	for i := range req.Data {
		d := &req.Data[i]
		if d.availableAt(node.Station) {
			continue
		}
		c.DataTransfer += transferSeconds(d.Size, node.LinkBitsPerSec)
		c.BytesMoved += d.Size
		c.TransferCount++
	}
	if !req.Code.availableAt(node.Station) && req.Code.Size > 0 {
		c.CodeTransfer = transferSeconds(req.Code.Size, node.LinkBitsPerSec)
		c.BytesMoved += req.Code.Size
		c.TransferCount++
	}
	rate := node.ComputeRate * (1 - node.Load)
	if rate <= 0 {
		rate = 1e-6
	}
	c.Compute = req.ComputeWork / rate
	if node.Station != req.Invoker {
		c.ResultReturn = transferSeconds(req.ResultSize, node.LinkBitsPerSec)
		c.BytesMoved += req.ResultSize
	}
	c.Total = c.DataTransfer + c.CodeTransfer + c.Compute + c.ResultReturn
	return c
}

// Choose picks the cheapest executor. Ties break toward the lower
// station ID for determinism.
func (e *Engine) Choose(req *Request) (Decision, error) {
	var cands []CandidateCost
	for _, n := range e.nodes {
		if n.Pinned {
			continue
		}
		cands = append(cands, costAt(req, n))
	}
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("%w (registered: %d)", ErrNoCandidates, len(e.nodes))
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Total != cands[j].Total {
			return cands[i].Total < cands[j].Total
		}
		return cands[i].Station < cands[j].Station
	})
	return Decision{Executor: cands[0].Station, Cost: cands[0], Candidates: cands}, nil
}
