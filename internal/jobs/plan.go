package jobs

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"privstats/internal/database"
	"privstats/internal/wire"
)

// Step is one cluster query of a plan: fold the (secret) selection against
// the requested column set in a single uplink.
type Step struct {
	// Label names the step in traces ("sum", "moments", "groups0-5").
	Label string
	// Sel is the selection this step's uplink encrypts; for a packed step,
	// the selected rows of its groups.
	Sel *database.Selection
	// Columns is the server-side fold set for the step.
	Columns wire.ColumnSet
	// Groups, for a packed group-by step, lists the group held in each
	// plaintext slot (slot j holds group Groups[j]); nil for a plain step.
	Groups []int
	// labels are the job's public group labels, shared by its packed steps.
	labels []int
}

// slots returns a packed step's index vector in slot form: row i holds the
// slot of its group when Sel selects it, -1 otherwise.
func (st *Step) slots() []int {
	slotOf := make(map[int]int, len(st.Groups))
	for j, g := range st.Groups {
		slotOf[g] = j
	}
	out := make([]int, st.Sel.Len())
	for i := range out {
		out[i] = -1
		if st.Sel.Bit(i) == 1 {
			out[i] = slotOf[st.labels[i]]
		}
	}
	return out
}

// maxPlaintext bounds every sum the step decrypts. Column entries are below
// 2⁶⁴, so a plain fold over n rows stays below n·2⁶⁴; each slot of a packed
// step stays below 2^B, so its packed sum is at most 2^(B·slots)−1.
func (st *Step) maxPlaintext() *big.Int {
	if st.Groups == nil {
		return new(big.Int).Lsh(big.NewInt(int64(st.Sel.Len())), 64)
	}
	top := new(big.Int).Lsh(big.NewInt(1), slotBits(st.Sel.Len())*uint(len(st.Groups)))
	return top.Sub(top, big.NewInt(1))
}

// unpack splits a packed step's decrypted sum into its per-group sums, in
// Groups order. Anything above the top slot means the sum was not packed as
// planned, and fails rather than yield a wrong statistic.
func (st *Step) unpack(sum *big.Int) ([]*big.Int, error) {
	width := slotBits(st.Sel.Len())
	mask := new(big.Int).Lsh(big.NewInt(1), width)
	mask.Sub(mask, big.NewInt(1))
	rest := new(big.Int).Set(sum)
	out := make([]*big.Int, len(st.Groups))
	for j := range out {
		out[j] = new(big.Int).And(rest, mask)
		rest.Rsh(rest, width)
	}
	if rest.Sign() != 0 {
		return nil, fmt.Errorf("jobs: step %s: packed sum overflows its %d slots", st.Label, len(st.Groups))
	}
	return out, nil
}

// slotBits is the packed group-by slot width B for a table of rows rows:
// 64 + bits.Len(rows). A slot sums at most rows values below 2⁶⁴, so it
// stays below rows·2⁶⁴ < 2^B and never carries into the next — the same
// n·2⁶⁴ worst case the Σx² guard assumes.
func slotBits(rows int) uint {
	return 64 + uint(bits.Len(uint(rows)))
}

// groupSlots is the number s of group-by slots one plaintext of the given
// space holds: ⌊(bitlen(N)−1)/B⌋, so the packed bound 2^(B·s)−1 stays
// below N. For tables of 512–1023 rows that is 6 at a 512-bit key and 27
// at a 2048-bit key.
func groupSlots(space *big.Int, rows int) int {
	return (space.BitLen() - 1) / int(slotBits(rows))
}

// Plan maps a validated JobSpec onto selected-sum queries plus a local
// finishing computation. Every op costs the fewest uplinks its statistic
// allows: sum/mean/variance/covariance are ONE query each (variance rides
// the paper's one-round two-column fold), and a groupby over G non-empty
// groups is ⌈G/s⌉ queries, each packing s groups into the slots of one
// plaintext (groupSlots).
type Plan struct {
	// Op echoes the spec's operation.
	Op string
	// Steps are the cluster queries, run in order.
	Steps []Step
	// Checkpoint, when non-nil, is called with the step label after each
	// successful step — the gateway's journal hook. Steps are read-only
	// against the cluster, so checkpoints gate nothing; they record progress.
	Checkpoint func(step string)
	// finish combines the per-step sums into the result: sums[i][j] is
	// step i's j'th column in ascending ColumnSet bit order, or for a packed
	// step its j'th slot (group Groups[j]).
	finish func(sums [][]*big.Int) (*Result, error)
}

// Result is a job's plaintext outcome. Exact values only: integers are
// decimal strings, ratio statistics are exact rationals rendered as "p/q"
// (big.Rat.RatString), so nothing is rounded before the analyst sees it.
type Result struct {
	Op    string `json:"op"`
	Count int    `json:"count"`
	// Sum is Σx over the selection (sum/mean/variance).
	Sum string `json:"sum,omitempty"`
	// SumSquares is Σx² (variance).
	SumSquares string `json:"sum_squares,omitempty"`
	// Mean is the exact mean (mean/variance).
	Mean string `json:"mean,omitempty"`
	// Variance is the exact population variance (m·Q − S²)/m².
	Variance string `json:"variance,omitempty"`
	// Covariance is the exact population covariance (m·Σxy − Σx·Σy)/m².
	Covariance string `json:"covariance,omitempty"`
	// Groups holds per-group rows for groupby, indexed by group.
	Groups []GroupResult `json:"groups,omitempty"`
}

// GroupResult is one group's row in a groupby result.
type GroupResult struct {
	Group int    `json:"group"`
	Count int    `json:"count"`
	Sum   string `json:"sum"`
	// Mean is empty for groups with no selected rows.
	Mean string `json:"mean,omitempty"`
}

// BuildPlan validates spec against schema and maps it onto steps, packing
// group-by strata into the slots of the given plaintext space (the
// executor key's). The returned plan is self-contained: it holds
// materialized selections and the finish arithmetic, so executing it needs
// only a query runner.
func BuildPlan(spec *JobSpec, schema Schema, space *big.Int) (*Plan, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	sel, err := spec.Selection.Build(schema.Rows)
	if err != nil {
		return nil, err
	}
	m := sel.Count()
	bm := big.NewInt(int64(m))

	switch spec.Op {
	case OpSum:
		return &Plan{
			Op:    OpSum,
			Steps: []Step{{Label: "sum", Sel: sel, Columns: wire.ColValue}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				return &Result{Op: OpSum, Count: m, Sum: sums[0][0].String()}, nil
			},
		}, nil

	case OpMean:
		return &Plan{
			Op:    OpMean,
			Steps: []Step{{Label: "mean", Sel: sel, Columns: wire.ColValue}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				s := sums[0][0]
				return &Result{
					Op:    OpMean,
					Count: m,
					Sum:   s.String(),
					Mean:  new(big.Rat).SetFrac(s, bm).RatString(),
				}, nil
			},
		}, nil

	case OpVariance, OpCovariance:
		// One query, two folds: the encrypted selection feeds the value and
		// square columns in a single round. Covariance on this repo's
		// single-column tables is the self-covariance cov(x, x): Σxy = Σx²,
		// so the same step serves both and the identity
		// (m·Σxy − Σx·Σy)/m² degenerates to the variance.
		return &Plan{
			Op:    spec.Op,
			Steps: []Step{{Label: "moments", Sel: sel, Columns: wire.ColValue | wire.ColSquare}},
			finish: func(sums [][]*big.Int) (*Result, error) {
				s, q := sums[0][0], sums[0][1]
				// (m·Q − S²) / m²
				num := new(big.Int).Mul(bm, q)
				num.Sub(num, new(big.Int).Mul(s, s))
				ratio := new(big.Rat).SetFrac(num, new(big.Int).Mul(bm, bm)).RatString()
				res := &Result{Op: spec.Op, Count: m, Sum: s.String(), SumSquares: q.String()}
				if spec.Op == OpVariance {
					res.Mean = new(big.Rat).SetFrac(s, bm).RatString()
					res.Variance = ratio
				} else {
					res.Covariance = ratio
				}
				return res, nil
			},
		}, nil

	case OpGroupBy:
		return planGroupBy(spec.Params, sel, schema.Rows, space)
	}
	return nil, badJob("op", "unknown op %q", spec.Op)
}

// planGroupBy packs the non-empty groups, s at a time, into weighted
// uplinks: a selected row of the group in slot j encrypts 2^(B·j), so one
// fold sums each group into its own B-bit slot. The labels are public and
// the counts local knowledge — the gateway authored the selection — so only
// the sums touch the protocol, and the server still sees one fresh
// ciphertext per row. Empty groups are filled in at finish time for free.
func planGroupBy(p *GroupByParams, sel *database.Selection, rows int, space *big.Int) (*Plan, error) {
	if space == nil {
		return nil, errors.New("jobs: group-by planning needs the key's plaintext space")
	}
	perStep := groupSlots(space, rows)
	if perStep < 1 {
		return nil, fmt.Errorf("jobs: a %d-bit plaintext space holds no %d-bit group-by slot", space.BitLen(), slotBits(rows))
	}
	counts := make([]int, p.Groups)
	for i, g := range p.Labels {
		if sel.Bit(i) == 1 {
			counts[g]++
		}
	}
	var nonEmpty []int
	for g, c := range counts {
		if c > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	var steps []Step
	for lo := 0; lo < len(nonEmpty); lo += perStep {
		groups := nonEmpty[lo:min(lo+perStep, len(nonEmpty))]
		member := make(map[int]bool, len(groups))
		for _, g := range groups {
			member[g] = true
		}
		stepSel, err := database.NewSelection(rows)
		if err != nil {
			return nil, err
		}
		for i, g := range p.Labels {
			if member[g] && sel.Bit(i) == 1 {
				stepSel.Set(i)
			}
		}
		steps = append(steps, Step{
			Label:   fmt.Sprintf("groups%d-%d", groups[0], groups[len(groups)-1]),
			Sel:     stepSel,
			Columns: wire.ColValue,
			Groups:  groups,
			labels:  p.Labels,
		})
	}
	m := sel.Count()
	return &Plan{
		Op:    OpGroupBy,
		Steps: steps,
		finish: func(sums [][]*big.Int) (*Result, error) {
			res := &Result{Op: OpGroupBy, Count: m, Groups: make([]GroupResult, len(counts))}
			for g := range res.Groups {
				res.Groups[g] = GroupResult{Group: g, Count: counts[g], Sum: "0"}
			}
			for i, st := range steps {
				for j, g := range st.Groups {
					s := sums[i][j]
					row := &res.Groups[g]
					row.Sum = s.String()
					row.Mean = new(big.Rat).SetFrac(s, big.NewInt(int64(counts[g]))).RatString()
				}
			}
			return res, nil
		},
	}, nil
}
