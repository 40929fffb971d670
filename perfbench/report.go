package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"privstats/internal/server"
	"privstats/internal/trace"
)

// attributionSlack is the share of op wall time the client-side layer
// spans may leave unexplained before the run's layer accounting is flagged.
const attributionSlack = 0.05

// counters are the daemon- and client-side counts a run reads twice: before
// the window (behind the settle barrier) and after the shutdown barrier.
type counters struct {
	started, completed, failed, rejected int64
	retries, failovers, hedges           int64
	served                               int64 // stock items stockd handed out

	// The gateway's protocol client (job workloads).
	encRows, encTimed, encNanos, decTimed, decNanos, sendNanos, up, down int64
}

func (e *env) snapshot() counters {
	var c counters
	for _, srv := range e.servers {
		m := srv.Metrics()
		c.started += m.SessionsStarted.Value()
		c.completed += m.SessionsCompleted.Value()
		c.failed += m.SessionsFailed.Value()
		c.rejected += m.SessionsRejected.Value()
	}
	rts := e.clients
	if e.exec != nil {
		rts = append(rts[:len(rts):len(rts)], e.exec)
	}
	for _, cl := range rts {
		m := cl.rt.Metrics()
		c.retries += m.Retries.Value()
		c.failovers += m.Failovers.Value()
		c.hedges += m.ShardHedges.Value() + m.HedgedDials.Value()
	}
	if e.fanout != nil {
		m := e.fanout.Metrics()
		c.retries += m.Retries.Value()
		c.failovers += m.Failovers.Value()
		c.hedges += m.ShardHedges.Value() + m.HedgedDials.Value()
	}
	if e.inv != nil {
		c.served = e.inv.Metrics().Key(stockLabel(e.sk)).ServedBits.Value()
	}
	if x := e.exec; x != nil {
		c.encRows, c.encTimed, c.encNanos = x.p.encRows.Load(), x.p.encTimed.Load(), x.p.encNanos.Load()
		c.decTimed, c.decNanos, c.sendNanos = x.p.decTimed.Load(), x.p.decNanos.Load(), x.p.sendNanos.Load()
		c.up, c.down = x.meter.up.Load(), x.meter.down.Load()
	}
	return c
}

// daemonTraces are the daemons' trace rings, indexed by trace ID. Each
// list is in session start order, so the k'th entry of every shard's list
// belongs to the same query of a multi-query job.
type daemonTraces struct {
	shards []map[string][]trace.Snapshot // per backend (the one sumserver when direct)
	agg    map[string][]trace.Snapshot
}

func indexRing(r *trace.Recorder) map[string][]trace.Snapshot {
	m := make(map[string][]trace.Snapshot)
	for _, s := range r.Recent(0) {
		m[s.ID] = append(m[s.ID], s)
	}
	for _, l := range m {
		sort.Slice(l, func(i, j int) bool { return l[i].Begin.Before(l[j].Begin) })
	}
	return m
}

// collectTraces indexes the deployment's trace rings.
func (e *env) collectTraces() *daemonTraces {
	backends := e.shards
	if e.direct != nil {
		backends = []*server.Server{e.direct}
	}
	d := &daemonTraces{}
	for _, srv := range backends {
		d.shards = append(d.shards, indexRing(srv.Traces()))
	}
	if e.proxy != nil {
		d.agg = indexRing(e.proxy.Traces())
	}
	return d
}

// spanDur sums the durations of the named spans.
func spanDur(s trace.Snapshot, name string) time.Duration {
	var d int64
	for _, sp := range s.Spans {
		if sp.Name == name {
			d += sp.DurNanos
		}
	}
	return time.Duration(d)
}

// maxSpan is the longest of the matching spans.
func maxSpan(s trace.Snapshot, prefix string) time.Duration {
	var d int64
	for _, sp := range s.Spans {
		if strings.HasPrefix(sp.Name, prefix) && sp.DurNanos > d {
			d = sp.DurNanos
		}
	}
	return time.Duration(d)
}

// queryCost is the daemon-side view of one query of an op.
type queryCost struct {
	foldMax, foldSum time.Duration
	skew             float64
	combine, fanout  time.Duration
}

// opCosts joins an op's trace ID to every session the daemons recorded for
// it, one queryCost per query. The hello and finalize spans of each backend
// session are appended to the given lists.
func (d *daemonTraces) opCosts(id string, hellos, finals *[]float64) []queryCost {
	var out []queryCost
	for q := 0; ; q++ {
		var qc queryCost
		found := 0
		for _, ring := range d.shards {
			l := ring[id]
			if q >= len(l) {
				continue
			}
			found++
			f := spanDur(l[q], "absorb")
			qc.foldSum += f
			if f > qc.foldMax {
				qc.foldMax = f
			}
			*hellos = append(*hellos, ms(spanDur(l[q], "hello")))
			*finals = append(*finals, ms(spanDur(l[q], "finalize")))
		}
		if found == 0 {
			return out
		}
		if qc.foldSum > 0 {
			qc.skew = float64(qc.foldMax) / (float64(qc.foldSum) / float64(found))
		}
		if d.agg != nil && q < len(d.agg[id]) {
			a := d.agg[id][q]
			qc.combine = spanDur(a, "combine")
			qc.fanout = maxSpan(a, "shard")
		}
		out = append(out, qc)
	}
}

// runStats is everything one run measured.
type runStats struct {
	w             spec
	traced        bool
	setups        []float64
	recs          []opRecord
	elapsed       time.Duration
	cpu           time.Duration
	alloc         uint64
	maxRSS        float64
	before, after counters
	daemon        *daemonTraces
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median sorts xs and returns its middle value (0 for no values).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and which percentile that is.
func tail(xs []float64) (value, pct float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	k := n - 11 // xs[k] has exactly ten samples above it
	if k < 0 {
		k = 0
	}
	return xs[k], 100 * float64(k+1) / float64(n)
}

func (st *runStats) result() *result {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	linef := func(format string, args ...any) { res.lines = append(res.lines, fmt.Sprintf(format, args...)) }

	var ok []opRecord
	byClass := map[string]int{}
	for _, r := range st.recs {
		if r.failure != "" {
			byClass[r.failure]++
			continue
		}
		ok = append(ok, r)
	}
	res.Attempted, res.Failed = len(st.recs), len(st.recs)-len(ok)
	mode := "end-to-end (untraced)"
	if st.traced {
		mode = "per-layer (every other op probed)"
	}
	linef("workload %s: %s", st.w.name, st.w.why)
	linef("host %s", hostFacts())
	loop := "closed loop"
	if st.w.stockOps > 0 {
		var late time.Duration
		for _, r := range st.recs {
			late = max(late, r.late)
		}
		loop = fmt.Sprintf("a fixed rate of %d queries in turn, timed from when due (sent at most %v late)",
			st.w.clients*st.w.stockOps, late.Round(time.Microsecond))
	}
	linef("mode %s; %d clients, %s, window %v, ops in flight for %v", mode, st.w.clients, loop,
		st.elapsed.Round(time.Millisecond), busy(st.recs).Round(time.Millisecond))
	linef("ops attempted %d, verified against the oracle %d, failed %d %s", res.Attempted, len(ok), res.Failed, classes(byClass))
	failedRatio := 0.0
	if res.Attempted > 0 {
		failedRatio = float64(res.Failed) / float64(res.Attempted)
	}
	linef("failed_ratio %.4f (failed or refused ops over attempted)", failedRatio)
	if len(ok) == 0 {
		// A run that attempted nothing has checked nothing.
		res.Correct = res.Attempted > 0
		return res
	}

	if !st.traced {
		st.endToEnd(ok, add, linef)
	} else {
		st.perLayer(ok, add, linef)
	}
	return res
}

func classes(m map[string]int) string {
	if len(m) == 0 {
		return "(none)"
	}
	var parts []string
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return "(" + strings.Join(parts, " ") + ")"
}

// busy is the wall time during which at least one op was in flight: the
// whole window for a closed loop, only the ops of a fixed-rate one, whose
// throughput over the window would just restate its rate.
func busy(recs []opRecord) time.Duration {
	spans := append([]opRecord(nil), recs...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var end time.Time
	for _, r := range spans {
		s, e := r.start, r.start.Add(r.wall)
		if s.Before(end) {
			s = end
		}
		if e.After(s) {
			total += e.Sub(s)
			end = e
		}
	}
	return total
}

func walls(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.wall)
	}
	return out
}

// bytesPerOp is the client connection's bytes up and down per verified op.
// Job ops share the gateway's connections, so they are divided out of the
// totals; every tenant runs whole job cycles, so the mix is the same in
// every run.
func (st *runStats) bytesPerOp(ok []opRecord) (up, down float64) {
	n := float64(len(ok))
	if st.w.jobs {
		return float64(st.after.up-st.before.up) / n, float64(st.after.down-st.before.down) / n
	}
	for _, r := range ok {
		up += float64(r.up)
		down += float64(r.down)
	}
	return up / n, down / n
}

func (st *runStats) endToEnd(ok []opRecord, add func(string, string, float64), linef func(string, ...any)) {
	lat := walls(ok)
	p50 := median(lat)
	tailV, pct := tail(lat)
	up, down := st.bytesPerOp(ok)
	add("latency_p50_ms", "ms", p50)
	add("latency_tail_ms", "ms", tailV)
	add("ops_per_s", "1/s", float64(len(ok))/busy(st.recs).Seconds())
	add("completed_ratio", "ratio", float64(len(ok))/float64(len(st.recs)))
	add("setup_s", "s", median(append([]float64(nil), st.setups...)))
	add("peak_rss_mb", "MB", st.maxRSS)
	add("wire_bytes_per_op", "bytes", up+down)
	linef("latency_p50_ms over %d samples; latency_tail_ms is p%.1f, with 10 of %d samples beyond it", len(lat), pct, len(lat))
	linef("setup_s is the median of %d set-ups: %s", len(st.setups), fmtFloats(st.setups, "%.3fs"))
}

func fmtFloats(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

func (st *runStats) perLayer(ok []opRecord, add func(string, string, float64), linef func(string, ...any)) {
	var traced, plain []opRecord
	for _, r := range ok {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		linef("layer accounting: no traced/untraced pair of ops (traced %d, untraced %d)", len(traced), len(plain))
		return
	}
	d := st.after
	b := st.before
	nOK := float64(len(ok))

	// Daemon side, joined by trace ID.
	var hellos, finals, foldRow, foldMax, skews, combines, fanouts []float64
	var sumWall, sumFold, sumCombine time.Duration
	overReply, overWindow := 0, 0
	for _, r := range traced {
		costs := st.daemon.opCosts(r.id.String(), &hellos, &finals)
		var fold, foldCrit, comb time.Duration
		for _, qc := range costs {
			fold += qc.foldSum
			foldCrit += qc.foldMax
			comb += qc.combine
			if st.w.shards > 0 {
				foldMax = append(foldMax, ms(qc.foldMax))
				skews = append(skews, qc.skew)
				combines = append(combines, ms(qc.combine))
				fanouts = append(fanouts, ms(qc.fanout))
			}
		}
		foldRow = append(foldRow, float64(fold)/float64(time.Microsecond)/float64(r.rows))
		sumWall += r.wall - r.late // how late the generator sent an op is not the program's time
		sumFold += foldCrit
		sumCombine += comb
		if !st.w.jobs {
			if foldCrit+comb > r.reply {
				overReply++
			}
			if foldCrit+comb > r.upload+r.reply {
				overWindow++
			}
		}
	}

	// Client side.
	var prime, send, dec, unattr, queue, exec []float64
	var sumPrime, sumDial, sumEnc, sumSend, sumUpOther, sumReply, sumDec, sumUnattr, sumQueue, sumExec time.Duration
	var encNanos, encRows int64
	for _, r := range traced {
		var covered time.Duration
		if st.w.jobs {
			covered = r.queueWait + r.exec
			queue = append(queue, ms(r.queueWait))
			exec = append(exec, ms(r.exec))
			sumQueue += r.queueWait
			sumExec += r.exec
		} else {
			covered = r.prime + r.dial + r.upload + r.reply + r.decrypt
			prime = append(prime, ms(r.prime))
			send = append(send, ms(r.send))
			dec = append(dec, ms(r.decrypt))
			sumPrime += r.prime
			sumDial += r.dial
			sumEnc += r.encrypt
			sumSend += r.send
			sumUpOther += r.upload - r.encrypt - r.send
			sumReply += r.reply
			sumDec += r.decrypt
			encNanos += int64(r.encrypt)
			encRows += r.encRows
		}
		u := r.wall - r.late - covered
		unattr = append(unattr, ms(u))
		sumUnattr += u
	}
	encPerRow := 0.0
	decMs, sendMs := median(dec), median(send)
	if st.w.jobs {
		encNanos, encRows = d.encNanos-b.encNanos, d.encTimed-b.encTimed
		if n := d.decTimed - b.decTimed; n > 0 {
			decMs = ms(time.Duration(d.decNanos-b.decNanos)) / float64(n)
		}
		sendMs = ms(time.Duration(d.sendNanos-b.sendNanos)) / float64(len(traced))
		sumEnc = time.Duration(encNanos)
	}
	if encRows > 0 {
		encPerRow = float64(encNanos) / float64(time.Microsecond) / float64(encRows)
	}
	up, down := st.bytesPerOp(ok)
	served := float64(d.served - b.served)
	drawn, fallbacks := 0.0, 0
	for _, r := range ok {
		if st.w.stockOps > 0 {
			drawn += float64(r.rows - r.fallbacks)
			fallbacks += r.fallbacks
		}
	}
	useful, items := 0.0, 0.0
	if served > 0 {
		useful, items = drawn/served, served/nOK
	}
	queries := 0.0
	rowsAll := 0.0
	for _, r := range ok {
		rowsAll += float64(r.rows)
		if st.w.jobs {
			hits := 0
			if st.daemon.agg != nil {
				hits = len(st.daemon.agg[r.id.String()])
			}
			queries += float64(hits)
		}
	}
	encPerJob := 0.0
	if st.w.jobs {
		queries /= nOK
		encPerJob = float64(d.encRows-b.encRows) / nOK
	}

	add("client.encrypt_us_per_row", "us", encPerRow)
	add("client.decrypt_ms", "ms", decMs)
	add("client.send_wait_ms", "ms", sendMs)
	add("selectedsum.fold_us_per_row", "us", median(foldRow))
	add("selectedsum.hello_ms", "ms", median(hellos))
	add("selectedsum.finalize_ms", "ms", median(finals))
	add("cluster.combine_ms", "ms", median(combines))
	add("cluster.fanout_ms", "ms", median(fanouts))
	add("cluster.shard_fold_max_ms", "ms", median(foldMax))
	add("cluster.shard_skew", "ratio", median(skews))
	add("cluster.retries", "count", float64(d.retries-b.retries))
	add("cluster.failovers", "count", float64(d.failovers-b.failovers))
	add("cluster.hedges", "count", float64(d.hedges-b.hedges))
	add("wire.up_bytes_per_op", "bytes", up)
	add("wire.down_bytes_per_op", "bytes", down)
	add("stock.prime_ms", "ms", median(prime))
	add("stock.items_per_op", "count", items)
	add("stock.useful_ratio", "ratio", useful)
	add("stock.online_fallbacks", "count", float64(fallbacks))
	add("server.sessions_completed", "1/op", float64(d.completed-b.completed)/nOK)
	add("server.sessions_failed", "count", float64(d.failed-b.failed))
	add("server.sessions_rejected", "count", float64(d.rejected-b.rejected))
	add("jobs.queue_wait_ms", "ms", median(queue))
	add("jobs.exec_ms", "ms", median(exec))
	add("jobs.queries_per_job", "count", queries)
	add("jobs.rows_encrypted_per_job", "count", encPerJob)
	add("process.cpu_ms_per_op", "ms", ms(st.cpu)/nOK)
	add("process.alloc_bytes_per_row", "bytes", float64(st.alloc)/rowsAll)
	add("trace.unattributed_ms", "ms", median(unattr))
	add("trace.overhead_ratio", "ratio", median(walls(traced))/median(walls(plain)))

	share := func(x time.Duration) float64 { return float64(x) / float64(sumWall) }
	shares := []struct {
		name string
		v    time.Duration
	}{
		{"stock", sumPrime}, {"connect", sumDial}, {"encrypt", sumEnc}, {"send", sumSend},
		{"upload_other", sumUpOther}, {"reply_wait", sumReply},
		{"decrypt", sumDec}, {"fold", sumFold}, {"combine", sumCombine},
		{"queue_wait", sumQueue}, {"exec", sumExec}, {"unattributed", sumUnattr},
	}
	var parts []string
	for _, s := range shares {
		add("share."+s.name, "ratio", share(s.v))
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.name, 100*share(s.v)))
	}
	linef("layer shares of op wall time over %d traced ops: %s", len(traced), strings.Join(parts, ", "))
	linef("  client-side spans (stock, connect, encrypt, send, upload_other, reply_wait, decrypt; jobs: queue_wait, exec) are disjoint;")
	linef("  upload_other is the rest of the upload: building frames, and waiting for a CPU while the shards fold")
	linef("  fold (slowest shard, per query) and combine run inside the upload and reply_wait, and jobs' encrypt inside exec")
	cover := 1 - share(sumUnattr)
	verdict := "within"
	if cover < 1-attributionSlack {
		verdict = "OUTSIDE"
	}
	linef("attribution: client-side spans cover %.1f%% of op wall time, %s the %.0f%% slack", 100*cover, verdict, 100*attributionSlack)
	if !st.w.jobs {
		linef("fold+combine exceeds the reply wait on %d of %d traced ops, and the upload-to-reply window on %d",
			overReply, len(traced), overWindow)
	}
	linef("prediction: %s", st.prediction(share(sumEnc), share(sumFold), share(sumPrime), share(sumSend), share(sumDec), share(sumCombine)))
	linef("stock: %.0f items served per op, %.2f of them drawn, %d online fallbacks", items, useful, fallbacks)
}

// prediction states whether the measured shares match what the benchmark
// was built to show on each workload.
func (st *runStats) prediction(enc, fold, prime, send, dec, comb float64) string {
	switch {
	case st.w.jobs:
		return fmt.Sprintf("jobs: encryption %.1f%%, fold %.1f%% of job time (no prediction beyond the counts)", 100*enc, 100*fold)
	case st.w.stockOps > 0:
		met := enc < 0.05 && fold > enc && fold > dec && fold > comb && fold > send
		return fmt.Sprintf("stocked: encryption near zero and the fold the largest server-side layer: %s (encrypt %.1f%%, fold %.1f%%, stock prime %.1f%%, send %.1f%%, combine %.1f%%, decrypt %.1f%%)",
			verdictWord(met), 100*enc, 100*fold, 100*prime, 100*send, 100*comb, 100*dec)
	default:
		met := enc > fold && enc > send && enc > dec && enc > 0.5
		return fmt.Sprintf("online: encryption dominant: %s (encrypt %.1f%%, fold %.1f%%, send %.1f%%, decrypt %.1f%%)",
			verdictWord(met), 100*enc, 100*fold, 100*send, 100*dec)
	}
}

func verdictWord(ok bool) string {
	if ok {
		return "met"
	}
	return "NOT met"
}
