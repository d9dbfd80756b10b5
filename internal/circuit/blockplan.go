package circuit

// Cache-blocked stage planning: the distributed stage partitioner
// (PlanDistStages) is reused intra-node with "shard" = L2-resident tile.
// A schedule over 2^(n-tileBits) tiles of 2^tileBits amplitudes has exactly
// the locality structure a distributed schedule has over ranks: every
// non-diagonal op of a stage acts on bit positions below tileBits, so a
// whole stage executes tile-by-tile with the amplitudes resident in cache,
// and a stage boundary is one in-memory bit-permutation sweep (the
// single-node analog of the all-to-all shard shuffle). Combined diagonal
// layers never force a remap: factors on positions above the tile read
// their bits off the tile index, exactly like the distributed engine reads
// global factors off the rank id.

// PlanTileStages partitions the plan's segment structure into
// communication-free tile stages. The shape fed to the partitioner is
// binding-independent — dense segments are constrained on their merged
// support, diagonal runs are unconstrained, passthrough gates keep their
// own locality rule — so one schedule serves every binding of a parametric
// ansatz and the session's spec store (core.ParseCache) keeps it beside the
// fusion plan. Stage op indices are segment indices, matching CompileSeq's
// one-op-per-segment programs. The circuit must have the structure the
// plan was built from (any binding works; only kinds and qubits are read).
//
// An error means the structure cannot be tiled at this granularity (a block
// wider than a tile); callers fall back to per-op execution.
func PlanTileStages(p *FusionPlan, c *Circuit, tileBits int) (*DistSchedule, error) {
	if c.NQubits != p.nqubits || len(c.Gates) != p.ngates {
		panic("circuit: PlanTileStages circuit does not match the fusion plan structure")
	}
	shape := &FusedProgram{NQubits: c.NQubits, Ops: make([]FusedOp, 0, len(p.segs))}
	for _, seg := range p.segs {
		switch seg.kind {
		case segDiag:
			shape.Ops = append(shape.Ops, FusedOp{Kind: FusedDiagonal})
		case segPass:
			g := c.Gates[seg.gates[0]]
			shape.Ops = append(shape.Ops, FusedOp{Kind: FusedGate, Gate: &g})
		case segDense:
			// Conservative: a binding may collapse the block to a diagonal
			// (which would be layout-free), but constraining it for every
			// binding keeps the schedule shareable across the batch.
			shape.Ops = append(shape.Ops, FusedOp{Kind: FusedDenseKQ, Qubits: seg.qubits})
		}
	}
	// Reserve low bit positions for unwished residents: the wish lookahead
	// then cannot evict the low-position fillers, so consecutive remaps keep
	// a fixed low-bit prefix and the stage-boundary gather copies contiguous
	// runs of 2^reserve amplitudes instead of single elements. Measured
	// optimum: 512-byte runs (reserve 6) once the tile can spare the bits —
	// below that, a third of the tile — with longer runs the fewer-stages
	// tradeoff inverts and more remap passes cost more than the shorter
	// copies save.
	reserve := tileBits - 10
	if reserve > 6 {
		reserve = 6
	}
	if reserve < tileBits/3 {
		reserve = tileBits / 3
	}
	sched, err := planDistStagesReserve(shape, tileBits, reserve)
	if err != nil {
		return nil, err
	}
	canonicalizeStageLayouts(sched, shape)
	return sched, nil
}

// canonicalizeStageLayouts rewrites each stage's layout to move as few —
// and as high — bit positions as possible between consecutive stages. A
// stage only *requires* the supports of its constrained ops to sit below
// the tile boundary; everything else about the planner's layout is free.
// The canonical form keeps every staying qubit at its exact previous
// position and, where the planner's filler retention is arbitrary, retains
// the residents with the *lowest* positions so evictions vacate the highest
// slots. The stage-boundary permutation then fixes a maximal low-bit prefix
// of the index, which the executor turns into long contiguous gather runs
// (streaming copies) instead of a per-element bit shuffle. The distributed
// planner's own layouts are untouched; only tile schedules are
// canonicalized.
func canonicalizeStageLayouts(sched *DistSchedule, shape *FusedProgram) {
	n, tb := sched.NQubits, sched.NLocal
	prev := make([]int, n)
	for q := range prev {
		prev[q] = q
	}
	required := make([]bool, n)
	lay := make([]int, n)
	for si := range sched.Stages {
		st := &sched.Stages[si]
		for i := range required {
			required[i] = false
		}
		nReq := 0
		for _, oi := range st.Ops {
			if qs, constrained := distSupport(&shape.Ops[oi]); constrained {
				for _, q := range qs {
					if !required[q] {
						required[q] = true
						nReq++
					}
				}
			}
		}
		// Residents stay in place: required ones unconditionally, fillers by
		// ascending position until the incoming required qubits fit.
		fillerQuota := tb - nReq
		var incoming, evicted, vacLocal, vacGlobal []int
		byPos := make([]int, n) // position -> qubit under prev
		for q := 0; q < n; q++ {
			byPos[prev[q]] = q
		}
		for p := 0; p < tb; p++ {
			q := byPos[p]
			switch {
			case required[q]:
				lay[q] = p
			case fillerQuota > 0:
				lay[q] = p
				fillerQuota--
			default:
				evicted = append(evicted, q)
				vacLocal = append(vacLocal, p)
			}
		}
		for p := tb; p < n; p++ {
			q := byPos[p]
			if required[q] {
				incoming = append(incoming, q)
				vacGlobal = append(vacGlobal, p)
			} else {
				lay[q] = p
			}
		}
		for i, q := range incoming {
			lay[q] = vacLocal[i]
		}
		for i, q := range evicted {
			lay[q] = vacGlobal[i]
		}
		copy(st.Layout, lay)
		copy(prev, lay)
	}
}
