package cost

import (
	_ "embed"
	"encoding/json"
	"sync"
)

// seedJSON is the checked-in seed calibration, fitted offline from the
// repository's BENCH_kernel.json / BENCH_mps.json artifacts by
// `qfwbench -exp fit-cost` (engines those artifacts do not cover carry
// hand-set curves marked pts=0). It is the calibration every process runs
// unless QFW_COST names a calibration file (calibrate.go).
//
//go:embed seed_cost.json
var seedJSON []byte

var (
	seedOnce sync.Once
	seedVal  *Calibration
)

// Seed returns the embedded seed calibration (shared, treat as immutable).
func Seed() *Calibration {
	seedOnce.Do(func() {
		var cal Calibration
		if err := json.Unmarshal(seedJSON, &cal); err != nil {
			panic("cost: corrupt embedded seed calibration: " + err.Error())
		}
		cal.Source = "seed"
		seedVal = &cal
	})
	return seedVal
}
