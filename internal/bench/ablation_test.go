package bench

import (
	"strings"
	"testing"
)

func TestAblationCatalogListed(t *testing.T) {
	// Table 2 lists every row of the experiment table, so the printed
	// catalog and what qfwbench can run never drift apart.
	h := quickHarness(t)
	t2 := h.RunBenchmarkCatalog()
	for _, e := range Experiments {
		if !strings.Contains(t2.Text, e.ID) || !strings.Contains(t2.Text, e.Describe) {
			t.Errorf("experiment %s missing from table2:\n%s", e.ID, t2.Text)
		}
	}
}

func TestKernelAblationStructure(t *testing.T) {
	// Structure check of the blocked-kernel ablation: three series (blocked /
	// per-op fused / per-gate) per workload x depth, identical size grids,
	// and per-gate points above the cap marked infeasible with an explaining
	// note rather than silently dropped. Runs in quick mode, so no timing
	// assertion — the >=2x acceptance aggregate is measured by the
	// full-size qfwbench run recorded in BENCH_kernel.json.
	h := quickHarness(t)
	h.Repeats = 1
	h.Shots = 32
	exp, err := h.RunKernelAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 12 {
		t.Fatalf("series %d, want 12 (3 engines x 2 workloads x 2 depths)", len(exp.Series))
	}
	for i := 0; i+2 < len(exp.Series); i += 3 {
		blocked, fused, perGate := exp.Series[i], exp.Series[i+1], exp.Series[i+2]
		if !strings.HasSuffix(blocked.Label, "blocked") ||
			!strings.HasSuffix(fused.Label, "fused per-op") ||
			!strings.HasSuffix(perGate.Label, "per-gate") {
			t.Fatalf("series ordering unexpected: %q, %q, %q", blocked.Label, fused.Label, perGate.Label)
		}
		if len(blocked.Points) != len(fused.Points) || len(blocked.Points) != len(perGate.Points) {
			t.Fatalf("%s: ragged point counts %d/%d/%d", blocked.Label, len(blocked.Points), len(fused.Points), len(perGate.Points))
		}
		for p := range blocked.Points {
			bp, fp, gp := blocked.Points[p], fused.Points[p], perGate.Points[p]
			if bp.X != fp.X || bp.X != gp.X {
				t.Fatalf("%s: size grid mismatch %d/%d/%d", blocked.Label, bp.X, fp.X, gp.X)
			}
			if bp.RuntimeMS <= 0 || fp.RuntimeMS <= 0 {
				t.Fatalf("%s n=%d: degenerate timings blocked %.3f fused %.3f", blocked.Label, bp.X, bp.RuntimeMS, fp.RuntimeMS)
			}
			if bp.X > 14 {
				if !gp.Infeasible || !strings.Contains(gp.Err, "per-gate baseline capped") {
					t.Fatalf("%s n=%d: per-gate point above cap not marked: %+v", perGate.Label, gp.X, gp)
				}
			} else if gp.RuntimeMS <= 0 {
				t.Fatalf("%s n=%d: degenerate per-gate timing %.3f", perGate.Label, gp.X, gp.RuntimeMS)
			}
		}
	}
}
