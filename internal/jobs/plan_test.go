package jobs

import (
	"math/big"
	"slices"
	"testing"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/wire"
)

// spaceKey is a public key reduced to its plaintext space, enough for the
// bound checks; every other method panics through the nil embedding.
type spaceKey struct {
	homomorphic.PublicKey
	space *big.Int
}

func (k spaceKey) PlaintextSpace() *big.Int { return new(big.Int).Set(k.space) }

func keyOf(space *big.Int) homomorphic.PublicKey { return spaceKey{space: space} }

func sums(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

// keySpace stands in for a bits-bit key's plaintext modulus: an odd number
// of exactly that bit length.
func keySpace(bits int) *big.Int {
	n := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	return n.Add(n, big.NewInt(1))
}

func TestBuildPlanSumAndMean(t *testing.T) {
	spec := &JobSpec{Op: OpSum, Selection: SelectionSpec{Rows: []int{0, 2, 4}}}
	plan, err := BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Columns != wire.ColValue {
		t.Fatalf("sum plan steps %+v", plan.Steps)
	}
	res, err := plan.finish([][]*big.Int{sums(42)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != "42" || res.Count != 3 {
		t.Fatalf("sum result %+v", res)
	}

	spec.Op = OpMean
	plan, err = BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	res, err = plan.finish([][]*big.Int{sums(10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != "10/3" {
		t.Fatalf("mean %q, want 10/3", res.Mean)
	}
}

func TestBuildPlanVariance(t *testing.T) {
	// Rows {0,1,2,3}: one query folding value AND square columns.
	spec := &JobSpec{Op: OpVariance, Selection: SelectionSpec{Ranges: [][2]int{{0, 4}}}}
	plan, err := BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("variance wants ONE query, got %d", len(plan.Steps))
	}
	if plan.Steps[0].Columns != wire.ColValue|wire.ColSquare {
		t.Fatalf("variance columns %v", plan.Steps[0].Columns)
	}
	// Values 1,2,3,4: S=10, Q=30, var = (4·30 − 100)/16 = 20/16 = 5/4.
	res, err := plan.finish([][]*big.Int{sums(10, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variance != "5/4" || res.Mean != "5/2" || res.SumSquares != "30" {
		t.Fatalf("variance result %+v", res)
	}

	// Self-covariance degenerates to the same identity.
	spec.Op = OpCovariance
	spec.Columns = []string{"value", "value"}
	plan, err = BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	res, err = plan.finish([][]*big.Int{sums(10, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covariance != "5/4" {
		t.Fatalf("covariance %q, want 5/4", res.Covariance)
	}
}

func TestBuildPlanGroupBy(t *testing.T) {
	// 10 rows, labels cycle 0/1/2; selecting rows 0,1 leaves group 2 empty.
	// The two non-empty groups share ONE packed uplink: slot 0 holds group
	// 0, slot 1 group 1, each B = 64 + bits.Len(10) = 68 bits wide.
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	spec := &JobSpec{
		Op:        OpGroupBy,
		Selection: SelectionSpec{Ranges: [][2]int{{0, 2}}}, // rows 0,1 → groups 0,1
		Params:    &GroupByParams{Labels: labels, Groups: 3},
	}
	plan, err := BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("2 non-empty groups want ONE packed step, got %d", len(plan.Steps))
	}
	st := plan.Steps[0]
	if st.Columns != wire.ColValue || slotBits(st.Sel.Len()) != 68 || !slices.Equal(st.Groups, []int{0, 1}) {
		t.Fatalf("step %+v", st)
	}
	if want := []int{0, 1, -1, -1, -1, -1, -1, -1, -1, -1}; !slices.Equal(st.slots(), want) {
		t.Fatalf("slots %v, want %v", st.slots(), want)
	}
	res, err := plan.finish([][]*big.Int{sums(7, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups %+v", res.Groups)
	}
	if res.Groups[0].Sum != "7" || res.Groups[0].Count != 1 || res.Groups[0].Mean != "7" {
		t.Fatalf("group 0: %+v", res.Groups[0])
	}
	if res.Groups[1].Sum != "9" {
		t.Fatalf("group 1: %+v", res.Groups[1])
	}
	if res.Groups[2].Sum != "0" || res.Groups[2].Count != 0 || res.Groups[2].Mean != "" {
		t.Fatalf("empty group 2: %+v", res.Groups[2])
	}
}

func TestBuildPlanGroupByPacksSlotsPerKey(t *testing.T) {
	// 600 rows (B = 74) over 256 groups, every group non-empty: s = 6 at a
	// 512-bit key, 27 at 2048 bits, so ⌈256/s⌉ uplinks.
	const rows = 600
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % MaxGroups
	}
	schema := Schema{Rows: rows, Columns: []string{"value"}}
	for _, c := range []struct{ bits, slots, steps int }{{512, 6, 43}, {2048, 27, 10}} {
		if got := groupSlots(keySpace(c.bits), rows); got != c.slots {
			t.Fatalf("%d-bit key: %d slots, want %d", c.bits, got, c.slots)
		}
		spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: MaxGroups}}
		plan, err := BuildPlan(spec, schema, keySpace(c.bits))
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != c.steps {
			t.Fatalf("%d-bit key: %d steps, want %d", c.bits, len(plan.Steps), c.steps)
		}
		next, selected := 0, 0
		for _, st := range plan.Steps {
			if len(st.Groups) > c.slots {
				t.Fatalf("step %s packs %d groups into %d slots", st.Label, len(st.Groups), c.slots)
			}
			for _, g := range st.Groups {
				if g != next {
					t.Fatalf("step %s holds group %d, want %d", st.Label, g, next)
				}
				next++
			}
			selected += st.Sel.Count()
			// The packed bound fits the key: the planner and the
			// executor's guard agree on capacity.
			if err := fitsPlaintext(st.maxPlaintext(), keyOf(keySpace(c.bits))); err != nil {
				t.Fatalf("step %s: %v", st.Label, err)
			}
		}
		if next != MaxGroups || selected != rows {
			t.Fatalf("%d-bit key: steps cover %d groups, %d rows", c.bits, next, selected)
		}
	}

	// A space too small for even one slot cannot plan a group-by.
	spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: 2}}
	if _, err := BuildPlan(spec, schema, keySpace(74)); err == nil {
		t.Fatal("BuildPlan packed a 74-bit slot into a 74-bit plaintext space")
	}
}

func TestStepUnpack(t *testing.T) {
	sel, err := database.NewSelection(40) // 40 rows: B = 64 + 6 = 70
	if err != nil {
		t.Fatal(err)
	}
	st := Step{Label: "g", Sel: sel, Groups: []int{3, 5, 8}}
	full := new(big.Int).Lsh(big.NewInt(1), 70)
	full.Sub(full, big.NewInt(1)) // 2^70 − 1: every bit of the slot set
	want := []*big.Int{big.NewInt(11), full, big.NewInt(0)}
	packed := new(big.Int)
	for j := len(want) - 1; j >= 0; j-- {
		packed.Lsh(packed, 70)
		packed.Add(packed, want[j])
	}
	got, err := st.unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j].Cmp(want[j]) != 0 {
			t.Fatalf("slot %d = %v, want %v", j, got[j], want[j])
		}
	}
	// A bit above the top slot is an overflow, never a silent drop.
	packed.SetBit(packed, 3*70, 1)
	if _, err := st.unpack(packed); err == nil {
		t.Fatal("unpack accepted a sum above its top slot")
	}
}

func TestFitsPlaintextBoundary(t *testing.T) {
	for _, bits := range []int{256, 512} {
		space := keySpace(bits)
		pk := keyOf(space)
		below := new(big.Int).Sub(space, big.NewInt(1))
		if err := fitsPlaintext(below, pk); err != nil {
			t.Fatalf("%d bits: N−1 rejected: %v", bits, err)
		}
		if err := fitsPlaintext(space, pk); err == nil {
			t.Fatalf("%d bits: N accepted", bits)
		}
	}
}

func TestBuildPlanRejectsBadSpec(t *testing.T) {
	if _, err := BuildPlan(&JobSpec{Op: "median", Selection: SelectionSpec{All: true}}, testSchema(), keySpace(512)); err == nil {
		t.Fatal("BuildPlan accepted an invalid spec")
	}
}
