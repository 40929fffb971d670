package selectedsum

import (
	"math/big"
	"testing"

	"privstats/internal/database"
	"privstats/internal/wire"
)

// TestPackedSlotsFoldPerGroup uploads one packed vector and folds it
// against the value and ones columns: each w-bit slot of the first sum is
// its group's value sum, and of the second its selected count.
func TestPackedSlotsFoldPerGroup(t *testing.T) {
	const n, groups, width = 30, 3, 70
	sk := testKey(t)
	table, err := database.Generate(n, database.DistUniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, n)
	wantSum := make([]uint64, groups)
	wantCount := make([]uint64, groups)
	for i := range slots {
		slots[i] = -1
		if i%4 != 0 { // every fourth row unselected
			g := i % groups
			slots[i] = g
			wantSum[g] += uint64(table.Value(i))
			wantCount[g]++
		}
	}
	src, err := NewPacked(sk, nil, slots, width)
	if err != nil {
		t.Fatal(err)
	}
	conn, errc := servePair(t, table)
	sums, err := QueryVectorColumns(conn, sk, src, 7, wire.ColValue|wire.ColOnes)
	if err != nil {
		t.Fatalf("QueryVectorColumns: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), width), big.NewInt(1))
	for c, want := range [][]uint64{wantSum, wantCount} {
		rest := new(big.Int).Set(sums[c])
		for g := 0; g < groups; g++ {
			if got := new(big.Int).And(rest, mask); !got.IsUint64() || got.Uint64() != want[g] {
				t.Errorf("column %d slot %d = %v, want %d", c, g, got, want[g])
			}
			rest.Rsh(rest, width)
		}
		if rest.Sign() != 0 {
			t.Errorf("column %d: bits above the top slot: %v", c, rest)
		}
	}

	if _, err := NewPacked(sk, nil, []int{0, -2}, width); err == nil {
		t.Error("NewPacked accepted slot -2")
	}
	if _, err := NewPacked(sk, nil, slots, 0); err == nil {
		t.Error("NewPacked accepted a zero slot width")
	}
}
