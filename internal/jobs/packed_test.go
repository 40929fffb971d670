package jobs

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/trace"
)

// Packed group-by over live servers: every test checks each group's exact
// sum, count and mean against a plaintext oracle.

var (
	pkOnce sync.Once
	pkKeys map[int]*paillier.PrivateKey
	pkErr  error
)

// packedKey returns a shared test key of the given size (512 or 2048).
func packedKey(t testing.TB, bits int) *paillier.PrivateKey {
	t.Helper()
	pkOnce.Do(func() {
		pkKeys = make(map[int]*paillier.PrivateKey)
		for _, b := range []int{512, 2048} {
			if pkKeys[b], pkErr = paillier.KeyGen(rand.Reader, b); pkErr != nil {
				return
			}
		}
	})
	if pkErr != nil {
		t.Fatalf("KeyGen: %v", pkErr)
	}
	return pkKeys[bits]
}

// countingKey counts the owner-path encryptions the executor makes, so a
// test can tell it never bypasses the SelfEncryptor capability.
type countingKey struct {
	homomorphic.PrivateKey
	self homomorphic.SelfEncryptor
	n    *atomic.Int64
}

func (k countingKey) EncryptSelf(m *big.Int) (homomorphic.Ciphertext, error) {
	k.n.Add(1)
	return k.self.EncryptSelf(m)
}

func newCountingKey(sk *paillier.PrivateKey) countingKey {
	base := paillier.SchemeKey{SK: sk}
	return countingKey{PrivateKey: base, self: base, n: new(atomic.Int64)}
}

// maxSource is a table whose every value is 2⁶⁴−1, the largest a column
// entry can be: with every row selected each slot sits at its bound.
type maxSource struct{ rows int }

func (s maxSource) Len() int                      { return s.rows }
func (s maxSource) Column() database.Column       { return s }
func (s maxSource) SquareColumn() database.Column { return s }
func (s maxSource) At(int) uint64                 { return math.MaxUint64 }

// packedRun is one group-by executed against a live server.
type packedRun struct {
	plan *Plan
	srv  *server.Server
}

// runGroupBy plans a groupby over src with the executor key's plaintext
// space, runs it against a server over src, and checks the result against
// the oracle.
func runGroupBy(t *testing.T, key homomorphic.PrivateKey, pool homomorphic.EncryptorPool, src database.Source, labels []int, groups int, sel SelectionSpec) packedRun {
	t.Helper()
	srv, err := server.NewSource(src, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	exec := &Executor{
		Client:    cluster.NewClient(cluster.ClientConfig{Retries: 2, Backoff: 5 * time.Millisecond}),
		Backends:  []string{serveOn(t, srv)},
		Key:       key,
		ChunkSize: 64,
		Pool:      pool,
	}
	spec := &JobSpec{Op: OpGroupBy, Selection: sel, Params: &GroupByParams{Labels: labels, Groups: groups}}
	schema := Schema{Rows: src.Len(), Columns: []string{"value"}}
	plan, err := BuildPlan(spec, schema, key.PublicKey().PlaintextSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(context.Background(), plan, trace.NewID())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s, err := sel.Build(src.Len())
	if err != nil {
		t.Fatal(err)
	}
	col := src.Column()
	wantSum := make([]*big.Int, groups)
	wantCount := make([]int, groups)
	for g := range wantSum {
		wantSum[g] = new(big.Int)
	}
	for i, g := range labels {
		if s.Bit(i) == 1 {
			wantSum[g].Add(wantSum[g], new(big.Int).SetUint64(col.At(i)))
			wantCount[g]++
		}
	}
	if len(res.Groups) != groups || res.Count != s.Count() {
		t.Fatalf("result has %d groups, count %d; want %d, %d", len(res.Groups), res.Count, groups, s.Count())
	}
	for g, row := range res.Groups {
		wantMean := ""
		if wantCount[g] > 0 {
			wantMean = new(big.Rat).SetFrac(wantSum[g], big.NewInt(int64(wantCount[g]))).RatString()
		}
		if row.Group != g || row.Sum != wantSum[g].String() || row.Count != wantCount[g] || row.Mean != wantMean {
			t.Fatalf("group %d: got %+v, want sum %s count %d mean %q", g, row, wantSum[g], wantCount[g], wantMean)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	return packedRun{plan: plan, srv: srv}
}

func genTable(t *testing.T, rows int, seed int64) *database.Table {
	t.Helper()
	tb, err := database.Generate(rows, database.DistUniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestPackedGroupByMaxGroups runs a MaxGroups job at the paper's 512-bit
// key: 512 rows make B = 74, so a plaintext holds s = 6 slots and the 256
// groups need ⌈256/6⌉ = 43 uplinks — one server session each.
func TestPackedGroupByMaxGroups(t *testing.T) {
	const rows = 512
	key := newCountingKey(packedKey(t, 512))
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % MaxGroups
	}
	run := runGroupBy(t, key, nil, genTable(t, rows, 14), labels, MaxGroups, SelectionSpec{All: true})
	if len(run.plan.Steps) != 43 {
		t.Fatalf("%d uplinks, want 43", len(run.plan.Steps))
	}
	if got := run.srv.Metrics().SessionsCompleted.Value(); got != 43 {
		t.Fatalf("server completed %d sessions, want 43", got)
	}
	// Every entry of every uplink is one owner-path encryption.
	if got := key.n.Load(); got != 43*rows {
		t.Fatalf("%d owner encryptions, want %d", got, 43*rows)
	}
}

// TestPackedGroupBySlotBound folds a column of 2⁶⁴−1 with every row
// selected: 127 rows make B = 71, so a slot's bound is 127·(2⁶⁴−1) < 2⁷¹.
// Each layout must decode exactly, with no carry between slots.
func TestPackedGroupBySlotBound(t *testing.T) {
	const rows = 127
	key := paillier.SchemeKey{SK: packedKey(t, 512)}
	src := maxSource{rows: rows}
	layouts := map[string]struct {
		groups int
		label  func(i int) int
	}{
		// Seven groups fill all s = 7 slots of one uplink.
		"every slot": {7, func(i int) int { return i % 7 }},
		// One group holds every row: its slot reaches 127·(2⁶⁴−1).
		"one full slot": {1, func(int) int { return 0 }},
		// Six single-row groups below a 121-row group in the top slot.
		"heavy top slot": {7, func(i int) int { return min(i, 6) }},
	}
	for name, l := range layouts {
		t.Run(name, func(t *testing.T) {
			labels := make([]int, rows)
			for i := range labels {
				labels[i] = l.label(i)
			}
			run := runGroupBy(t, key, nil, src, labels, l.groups, SelectionSpec{All: true})
			if len(run.plan.Steps) != 1 {
				t.Fatalf("%d uplinks, want 1", len(run.plan.Steps))
			}
		})
	}
}

// TestPackedGroupByPaths runs a multi-uplink group-by online and from a
// local BitStore pool, at 512 and 2048 bits. The pooled path encrypts each
// selected entry as U_g·E(0): it draws only zero-bits, and its one owner
// encryption per slot is U_g.
func TestPackedGroupByPaths(t *testing.T) {
	const rows, groups = 60, 40 // B = 70: 7 slots at 512 bits, 29 at 2048
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % groups
	}
	sel := SelectionSpec{Ranges: [][2]int{{0, 50}}} // rows 50..59 (groups 10..19) unselected
	tb := genTable(t, rows, 99)
	for _, c := range []struct{ bits, uplinks int }{{512, 6}, {2048, 2}} {
		sk := packedKey(t, c.bits)
		t.Run(fmt.Sprintf("%d/online", c.bits), func(t *testing.T) {
			key := newCountingKey(sk)
			run := runGroupBy(t, key, nil, tb, labels, groups, sel)
			if len(run.plan.Steps) != c.uplinks {
				t.Fatalf("%d bits: %d uplinks, want %d", c.bits, len(run.plan.Steps), c.uplinks)
			}
			if got := key.n.Load(); got != int64(c.uplinks*rows) {
				t.Fatalf("%d bits: %d owner encryptions, want %d", c.bits, got, c.uplinks*rows)
			}
		})
		t.Run(fmt.Sprintf("%d/pooled", c.bits), func(t *testing.T) {
			key := newCountingKey(sk)
			store := paillier.NewBitStoreOwner(sk)
			const ones = 3
			if err := store.Fill(c.uplinks*rows, ones); err != nil {
				t.Fatal(err)
			}
			run := runGroupBy(t, key, paillier.SchemeBitStore{Store: store}, tb, labels, groups, sel)
			if len(run.plan.Steps) != c.uplinks {
				t.Fatalf("%d bits: %d uplinks, want %d", c.bits, len(run.plan.Steps), c.uplinks)
			}
			zeros, gotOnes := store.Depth()
			if zeros != 0 || gotOnes != ones || store.OnlineFallbacks() != 0 {
				t.Fatalf("%d bits: pool left %d zeros, %d ones, %d fallbacks; want 0, %d, 0",
					c.bits, zeros, gotOnes, store.OnlineFallbacks(), ones)
			}
			if got := key.n.Load(); got != groups {
				t.Fatalf("%d bits: %d owner encryptions, want one U_g per group (%d)", c.bits, got, groups)
			}
		})
	}
}

// TestExecutorGuardsPackedBound runs a plan packed for a 512-bit space on
// a 256-bit key: the executor's bound check refuses it before any query,
// instead of letting the packed sum wrap mod N.
func TestExecutorGuardsPackedBound(t *testing.T) {
	labels := []int{0, 1, 2, 3, 4, 5, 6, 0, 1, 2}
	spec := &JobSpec{Op: OpGroupBy, Selection: SelectionSpec{All: true}, Params: &GroupByParams{Labels: labels, Groups: 7}}
	plan, err := BuildPlan(spec, testSchema(), keySpace(512))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || len(plan.Steps[0].Groups) != 7 {
		t.Fatalf("plan %+v, want one 7-slot step", plan.Steps)
	}
	exec := &Executor{
		// A dead backend: reaching it would fail with a dial error instead.
		Client:   cluster.NewClient(cluster.ClientConfig{Retries: 0}),
		Backends: []string{"127.0.0.1:1"},
		Key:      jobTestKey(t),
	}
	_, err = exec.Run(context.Background(), plan, trace.NewID())
	if err == nil || !strings.Contains(err.Error(), "plaintext space too small") {
		t.Fatalf("Run = %v, want a plaintext-space rejection", err)
	}
}
