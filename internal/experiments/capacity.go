package experiments

import (
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// CapacityRow reports exact-match table density for one key width —
// §3.2: "With 64-bit ID fields, we could store ∼1.8M exact entries
// and with 128-bit IDs, we could fit ∼850K."
type CapacityRow struct {
	KeyBits    int
	EntryBytes int
	MemoryMiB  float64
	// ModelCapacity is the SRAM model's entry budget.
	ModelCapacity int
	// AchievedEntries is the count actually inserted before
	// ErrTableFull on a scaled-down table (validating that the model
	// is enforced, not just reported).
	AchievedEntries int
	// ScaledMemoryMiB is the memory used for the insert-to-full run.
	ScaledMemoryMiB float64
}

func (r CapacityRow) cells() []any {
	return []any{"key_bits", r.KeyBits, "entry_bytes", r.EntryBytes, "mem_mib", r.MemoryMiB,
		"model_entries", r.ModelCapacity, "achieved_at_scaled", r.AchievedEntries,
		"scaled_mib", r.ScaledMemoryMiB}
}

// Capacity reproduces the switch-table density comparison. The full
// 30 MiB budget is reported from the SRAM model; insert-to-full runs
// on a 1 MiB table so the check completes quickly while exercising the
// same arithmetic.
func Capacity() []CapacityRow {
	const scaled = 1 << 20
	gen := oid.NewSeededGenerator(7)
	rows := make([]CapacityRow, 0, 2)
	for _, keyBits := range []int{64, 128} {
		field := wire.FieldTrace // the header's one 64-bit ID field
		if keyBits == 128 {
			field = wire.FieldObject
		}
		full, err := p4sim.NewTable("full", []p4sim.Key{{Field: field, Kind: p4sim.MatchExact}},
			p4sim.TableConfig{})
		if err != nil {
			panic(err)
		}
		small, err := p4sim.NewTable("small", []p4sim.Key{{Field: field, Kind: p4sim.MatchExact}},
			p4sim.TableConfig{MemoryBytes: scaled})
		if err != nil {
			panic(err)
		}
		achieved := 0
		for {
			var match []p4sim.KeyValue
			if keyBits == 128 {
				match = []p4sim.KeyValue{{Value: wire.ValueOfID(gen.New())}}
			} else {
				match = []p4sim.KeyValue{{Value: wire.ValueOf(uint64(achieved + 1))}}
			}
			if err := small.Insert(p4sim.Entry{
				Match:  match,
				Action: p4sim.Action{Type: p4sim.ActForward, Port: achieved % 16},
			}); err != nil {
				break
			}
			achieved++
		}
		rows = append(rows, CapacityRow{
			KeyBits:         keyBits,
			EntryBytes:      full.EntryCost(),
			MemoryMiB:       float64(p4sim.DefaultTableMemory) / (1 << 20),
			ModelCapacity:   full.Capacity(),
			AchievedEntries: achieved,
			ScaledMemoryMiB: float64(scaled) / (1 << 20),
		})
	}
	return rows
}
