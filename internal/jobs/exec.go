package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/homomorphic"
	"privstats/internal/selectedsum"
	"privstats/internal/trace"
)

// Executor runs plans against a cluster (or single-server) endpoint through
// the fan-out client, so every step inherits its retry, failover, and hedge
// policy. The executor is the analyst side: it holds the private key,
// encrypts selections on the way out, and decrypts sums on the way in —
// ciphertext never appears in a job result.
type Executor struct {
	// Client is the fan-out client (required).
	Client *cluster.Client
	// Backends is the failover list of aggregator (or server) addresses.
	Backends []string
	// Key is the analyst key pair (required).
	Key homomorphic.PrivateKey
	// ChunkSize batches the index stream; 0 sends one chunk.
	ChunkSize int
	// Pool supplies preprocessed bit encryptions; nil encrypts online.
	Pool homomorphic.EncryptorPool
	// Traces, when non-nil, records one gateway-side trace per job under
	// the job's ID — the same ID every hop of the fan-out records under.
	Traces *trace.Recorder
}

// validate checks the executor's wiring at construction time.
func (e *Executor) validate() error {
	if e == nil {
		return errors.New("jobs: nil executor")
	}
	if e.Client == nil {
		return errors.New("jobs: executor needs a cluster client")
	}
	if len(e.Backends) == 0 {
		return errors.New("jobs: executor needs at least one backend")
	}
	if e.Key == nil {
		return errors.New("jobs: executor needs a private key")
	}
	return nil
}

// Run executes the plan's steps in order, tagging every query with id, and
// finishes the result locally. A failed step fails the whole job — never a
// partial result, mirroring the aggregator's all-or-nothing contract.
func (e *Executor) Run(ctx context.Context, plan *Plan, id trace.ID) (res *Result, err error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, errors.New("jobs: nil plan")
	}
	tr := trace.New("")
	tr.SetID(id)
	tr.SetRole("gateway")
	tr.Annotate("op", plan.Op)
	tr.Annotate("steps", strconv.Itoa(len(plan.Steps)))
	defer func() {
		tr.Finish(err)
		e.Traces.Add(tr)
	}()

	// Every sum must stay below the plaintext modulus: a fold that reaches N
	// wraps into a silently wrong statistic, so a too-small key fails
	// loudly before any query runs.
	pk := e.Key.PublicKey()
	for i := range plan.Steps {
		st := &plan.Steps[i]
		if err := fitsPlaintext(st.maxPlaintext(), pk); err != nil {
			return nil, fmt.Errorf("jobs: step %s over %d rows: %w", st.Label, st.Sel.Len(), err)
		}
	}

	sums := make([][]*big.Int, len(plan.Steps))
	for i := range plan.Steps {
		st := &plan.Steps[i]
		start := time.Now()
		got, qerr := e.query(ctx, st, id)
		attrs := map[string]string{
			"columns":  st.Columns.String(),
			"selected": strconv.Itoa(st.Sel.Count()),
		}
		if st.Groups != nil {
			attrs["slots"] = strconv.Itoa(len(st.Groups))
		}
		if qerr != nil {
			attrs["error"] = qerr.Error()
		}
		tr.Observe(st.Label, start, time.Since(start), attrs)
		if qerr != nil {
			return nil, fmt.Errorf("jobs: step %s: %w", st.Label, qerr)
		}
		sums[i] = got
		if plan.Checkpoint != nil {
			plan.Checkpoint(st.Label)
		}
	}
	return plan.finish(sums)
}

// query runs one step through the fan-out client. A plain step uploads its
// selection bits; a packed step uploads its weighted vector and splits the
// one decrypted sum into its groups' slots.
func (e *Executor) query(ctx context.Context, st *Step, id trace.ID) ([]*big.Int, error) {
	spec := cluster.QuerySpec{
		Sel:       st.Sel,
		ChunkSize: e.ChunkSize,
		Pool:      e.Pool,
		Columns:   st.Columns,
		TraceID:   [16]byte(id),
	}
	if st.Groups == nil {
		return e.Client.QueryColumns(ctx, e.Backends, e.Key, spec)
	}
	vec, err := selectedsum.NewPacked(e.Key, e.Pool, st.slots(), slotBits(st.Sel.Len()))
	if err != nil {
		return nil, err
	}
	spec.Vector = vec
	got, err := e.Client.QueryColumns(ctx, e.Backends, e.Key, spec)
	if err != nil {
		return nil, err
	}
	return st.unpack(got[0])
}

// fitsPlaintext is the jobs layer's one plaintext-bound check: it fails
// unless every value up to bound is a distinct plaintext of pk, i.e.
// bound ≤ N−1. The executor routes every step through it — the n·2⁶⁴
// bound of a plain or Σx² fold and the 2^(B·s)−1 bound of a packed
// group-by alike.
func fitsPlaintext(bound *big.Int, pk homomorphic.PublicKey) error {
	if space := pk.PlaintextSpace(); bound.Cmp(space) >= 0 {
		return fmt.Errorf("plaintext space too small: sums reach %d bits, the key's space is %d bits", bound.BitLen(), space.BitLen())
	}
	return nil
}
