package jobs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{Rows: 10, Columns: []string{"value"}}
}

func TestDecodeJobSpec(t *testing.T) {
	spec, err := DecodeJobSpec([]byte(`{"op":"sum","selection":{"all":true}}`))
	if err != nil {
		t.Fatalf("DecodeJobSpec: %v", err)
	}
	if spec.Op != OpSum || !spec.Selection.All {
		t.Fatalf("decoded %+v", spec)
	}

	cases := []struct {
		name string
		in   string
	}{
		{"empty", ``},
		{"not json", `{"op":`},
		{"unknown field", `{"op":"sum","bogus":1}`},
		{"trailing data", `{"op":"sum"}{"op":"sum"}`},
		{"wrong type", `{"op":42}`},
	}
	for _, tc := range cases {
		if _, err := DecodeJobSpec([]byte(tc.in)); err == nil {
			t.Errorf("%s: DecodeJobSpec accepted %q", tc.name, tc.in)
		}
	}
}

func TestDecodeJobSpecSizeCap(t *testing.T) {
	huge := `{"op":"sum","selection":{"rows":[` + strings.Repeat("1,", MaxSpecBytes/2) + `1]}}`
	if _, err := DecodeJobSpec([]byte(huge)); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	all := SelectionSpec{All: true}
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	cases := []struct {
		name  string
		spec  JobSpec
		field string
	}{
		{"unknown op", JobSpec{Op: "median", Selection: all}, "op"},
		{"empty op", JobSpec{Selection: all}, "op"},
		{"unknown column", JobSpec{Op: OpSum, Columns: []string{"zip"}, Selection: all}, "columns[0]"},
		{"too many columns", JobSpec{Op: OpSum, Columns: []string{"value", "value"}, Selection: all}, "columns"},
		{"covariance one column", JobSpec{Op: OpCovariance, Columns: []string{"value"}, Selection: all}, "columns"},
		{"no selection", JobSpec{Op: OpSum}, "selection"},
		{"two selection forms", JobSpec{Op: OpSum, Selection: SelectionSpec{All: true, Rows: []int{1}}}, "selection"},
		{"row out of range", JobSpec{Op: OpSum, Selection: SelectionSpec{Rows: []int{10}}}, "selection.rows[0]"},
		{"negative row", JobSpec{Op: OpSum, Selection: SelectionSpec{Rows: []int{-1}}}, "selection.rows[0]"},
		{"inverted range", JobSpec{Op: OpSum, Selection: SelectionSpec{Ranges: [][2]int{{5, 3}}}}, "selection.ranges[0]"},
		{"range past end", JobSpec{Op: OpSum, Selection: SelectionSpec{Ranges: [][2]int{{0, 11}}}}, "selection.ranges[0]"},
		{"mean of nothing", JobSpec{Op: OpMean, Selection: SelectionSpec{Ranges: [][2]int{{3, 3}}}}, "selection"},
		{"variance of nothing", JobSpec{Op: OpVariance, Selection: SelectionSpec{Ranges: [][2]int{{3, 3}}}}, "selection"},
		{"groupby no params", JobSpec{Op: OpGroupBy, Selection: all}, "params"},
		{"groupby zero groups", JobSpec{Op: OpGroupBy, Selection: all, Params: &GroupByParams{Labels: labels}}, "params.groups"},
		{"groupby too many groups", JobSpec{Op: OpGroupBy, Selection: all, Params: &GroupByParams{Labels: labels, Groups: MaxGroups + 1}}, "params.groups"},
		{"groupby short labels", JobSpec{Op: OpGroupBy, Selection: all, Params: &GroupByParams{Labels: []int{0, 1}, Groups: 2}}, "params.labels"},
		{"groupby label out of range", JobSpec{Op: OpGroupBy, Selection: all, Params: &GroupByParams{Labels: labels, Groups: 1}}, "params.labels"},
		{"params on sum", JobSpec{Op: OpSum, Selection: all, Params: &GroupByParams{Labels: labels, Groups: 2}}, "params"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(testSchema())
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
			continue
		}
		var bad *BadJobError
		if !errors.As(err, &bad) {
			t.Errorf("%s: error %v is not a BadJobError", tc.name, err)
			continue
		}
		if bad.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%v)", tc.name, bad.Field, tc.field, err)
		}
		if !strings.HasPrefix(err.Error(), "[bad-job] ") {
			t.Errorf("%s: error %q lacks [bad-job] code", tc.name, err)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	good := []JobSpec{
		{Op: OpSum, Selection: SelectionSpec{All: true}},
		{Op: OpSum, Columns: []string{"value"}, Selection: SelectionSpec{Rows: []int{0, 9}}},
		{Op: OpSum, Selection: SelectionSpec{Ranges: [][2]int{{3, 3}}}}, // empty sum is 0
		{Op: OpMean, Selection: SelectionSpec{Ranges: [][2]int{{0, 5}}}},
		{Op: OpVariance, Selection: SelectionSpec{Ranges: [][2]int{{0, 5}, {7, 10}}}},
		{Op: OpCovariance, Columns: []string{"value", "value"}, Selection: SelectionSpec{All: true}},
		{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: 2}},
	}
	for i, spec := range good {
		if err := spec.Validate(testSchema()); err != nil {
			t.Errorf("spec %d: Validate rejected: %v", i, err)
		}
	}
}

func TestSelectionBuild(t *testing.T) {
	sel, err := (&SelectionSpec{Rows: []int{1, 3, 3, 5}}).Build(8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 3 {
		t.Fatalf("count %d, want 3 (duplicates are idempotent)", sel.Count())
	}
	sel, err = (&SelectionSpec{Ranges: [][2]int{{0, 4}, {2, 6}}}).Build(8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 6 {
		t.Fatalf("count %d, want 6 (overlap is idempotent)", sel.Count())
	}
	sel, err = (&SelectionSpec{All: true}).Build(8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 8 {
		t.Fatalf("count %d, want 8", sel.Count())
	}
}

// FuzzDecodeJobSpec asserts the decode → validate → re-encode path never
// panics and that accepted specs survive a JSON round trip.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add([]byte(`{"op":"sum","selection":{"all":true}}`))
	f.Add([]byte(`{"op":"mean","columns":["value"],"selection":{"rows":[0,1,2]}}`))
	f.Add([]byte(`{"op":"variance","selection":{"ranges":[[0,5]]}}`))
	f.Add([]byte(`{"op":"groupby","selection":{"all":true},"params":{"labels":[0,1,0,1,0,1,0,1,0,1],"groups":2}}`))
	f.Add([]byte(`{"op":"covariance","columns":["value","value"],"selection":{"all":true}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"op":"sum","selection":{"rows":[-1]}}`))

	schema := Schema{Rows: 10, Columns: []string{"value"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		verr := spec.Validate(schema) // must not panic
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeJobSpec(blob)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if verr == nil {
			if err := again.Validate(schema); err != nil {
				t.Fatalf("round trip changed validity: %v", err)
			}
			if _, err := BuildPlan(spec, schema, keySpace(512)); err != nil {
				t.Fatalf("valid spec failed to plan: %v", err)
			}
		}
	})
}
