package main

import (
	"context"
	"crypto/rand"
	"io"
	"testing"
	"time"

	"privstats/internal/crypto/dj"
	"privstats/internal/crypto/elgamal"
	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/testutil"
)

// The probes must keep every optional capability of what they wrap, or a
// traced run would silently take the stripped, slower route.
func TestProbeKeyKeepsCapabilities(t *testing.T) {
	psk, err := paillier.KeyGen(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	dsk, err := dj.KeyGen(rand.Reader, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	esk, err := elgamal.KeyGen(rand.Reader, 512, 160, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]homomorphic.PrivateKey{
		"paillier":          paillier.SchemeKey{SK: psk},
		"paillier-stripped": homomorphic.WithoutSelfEncrypt(paillier.SchemeKey{SK: psk}),
		"dj":                dj.PrivKey{SK: dsk},
		"elgamal":           elgamal.PrivKey{SK: esk},
	}
	for name, sk := range keys {
		wrapped := probeKey(sk, new(probe))
		_, baseSelf := sk.(homomorphic.SelfEncryptor)
		_, gotSelf := wrapped.(homomorphic.SelfEncryptor)
		_, baseFold := sk.PublicKey().(homomorphic.MultiScalarFolder)
		_, gotFold := wrapped.PublicKey().(homomorphic.MultiScalarFolder)
		_, baseFixed := sk.PublicKey().(homomorphic.FixedBased)
		_, gotFixed := wrapped.PublicKey().(homomorphic.FixedBased)
		if baseSelf != gotSelf || baseFold != gotFold || baseFixed != gotFixed {
			t.Errorf("%s: capabilities (self %v, fold %v, fixed %v) became (%v, %v, %v)",
				name, baseSelf, baseFold, baseFixed, gotSelf, gotFold, gotFixed)
		}
	}
}

// An untraced and a traced run of one seed, op for op, move the same bytes,
// account the same sessions and draw no stock online; every traced op's
// daemon sessions are found by its trace ID, and the client-side spans
// cover its wall time within the stated slack.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	state := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops := 4
			if w.jobs {
				// Job ops are probed every other job cycle.
				ops = 2 * len(jobKinds)
			}
			if w.stockOps > 0 {
				// A smaller offline stock keeps the fixture quick to build.
				w.stockOps = ops
			}
			var stats [2]*runStats
			for i, traced := range []bool{false, true} {
				st, err := runFixed(w, state, ops, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if want := w.clients * ops; len(st.recs) != want {
					t.Fatalf("traced=%v: %d ops, want %d", traced, len(st.recs), want)
				}
				for _, r := range st.recs {
					if r.failure != "" || r.fallbacks != 0 {
						t.Fatalf("traced=%v: op %d/%d failed %q with %d stock fallbacks", traced, r.client, r.index, r.failure, r.fallbacks)
					}
				}
				stats[i] = st
			}
			plain, traced := stats[0], stats[1]
			upA, downA := plain.bytesPerOp(plain.recs)
			upB, downB := traced.bytesPerOp(traced.recs)
			if upA != upB || downA != downB {
				t.Errorf("bytes per op: untraced %v up %v down, traced %v up %v down", upA, downA, upB, downB)
			}
			for _, st := range stats {
				if d := st.after.completed - st.before.completed; d != plain.after.completed-plain.before.completed || st.after.failed != st.before.failed {
					t.Errorf("traced=%v: %d sessions completed, %d failed; untraced completed %d",
						st.traced, d, st.after.failed-st.before.failed, plain.after.completed-plain.before.completed)
				}
			}
			var wall, unattributed time.Duration
			probed := 0
			for _, r := range traced.recs {
				if !r.traced {
					continue
				}
				probed++
				var hellos, finals []float64
				if costs := traced.daemon.opCosts(r.id.String(), &hellos, &finals); len(costs) != r.queries {
					t.Errorf("op %d/%d: %d queries in the daemons' traces, want %d", r.client, r.index, len(costs), r.queries)
				}
				wall += r.wall - r.late
				if w.jobs {
					unattributed += r.wall - r.late - r.queueWait - r.exec
				} else {
					unattributed += r.wall - r.late - r.prime - r.dial - r.upload - r.reply - r.decrypt
				}
			}
			if probed == 0 {
				t.Fatal("the traced run probed no op")
			}
			// The race detector slows the unprobed glue between spans far
			// more than the probed calls, so the slack holds only without it.
			if share := float64(unattributed) / float64(wall); !testutil.RaceEnabled && !(share >= 0 && share <= attributionSlack) {
				t.Errorf("client-side spans leave %.1f%% of op wall time unattributed (slack %.0f%%)", 100*share, 100*attributionSlack)
			}
		})
	}
}

// runFixed runs w for a fixed op count per client.
func runFixed(w spec, state string, ops int, traced bool) (*runStats, error) {
	return run(context.Background(), config{
		w:      w,
		seed:   7,
		window: 2 * time.Second,
		traced: traced,
		state:  state,
		out:    io.Discard,
		ops:    ops,
	})
}
