package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"regexp"
	"sync"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/selectedsum"
	"privstats/internal/stock"
	"privstats/internal/trace"
	"privstats/internal/wire"
)

// errWrong marks a result that disagrees with the plaintext oracle. It
// aborts the run; it is never counted as a failed op.
var errWrong = errors.New("wrong result")

// opRecord is one op as the load generator saw it.
type opRecord struct {
	client, index int
	id            trace.ID
	traced        bool
	start         time.Time
	wall          time.Duration
	late          time.Duration // paced ops: sent this long after they were due
	failure       string        // "" for a verified op, else its failure class
	rows          int           // index-vector rows uploaded: rows × queries
	queries       int
	up, down      int64

	// Client-side layer spans; traced ops only. prime, dial, upload, reply
	// and decrypt are disjoint parts of the op's wall time; encrypt and send
	// are parts of upload.
	prime, dial, upload, encrypt, send, reply, decrypt time.Duration
	encRows                                            int64
	fallbacks                                          int

	// Job ops: the gateway's own timestamps. The rest of a job's wall time
	// is the submit request and the poll lag.
	queueWait, exec time.Duration
}

// queryOp runs one private selected-sum query as sumclient does, and
// checks the decrypted sum against the oracle.
func (e *env) queryOp(ctx context.Context, c *client, i int) (opRecord, error) {
	k := (i*e.w.clients + c.id) % selectionPool
	sel, want := e.in.sels[k], e.in.sums[k]
	rec := opRecord{client: c.id, index: i, id: trace.NewID(), traced: c.p.on.Load(), rows: e.w.rows, queries: 1}
	c.p.reset()
	c.meter.reset()
	rec.start = time.Now()

	var pool homomorphic.EncryptorPool
	var src *stock.RemoteSource
	if e.w.stockOps > 0 {
		// Prime exactly the query's bits, plus one spare of each so that the
		// last draws stay above the low-water mark of 1. sumclient -stock
		// keeps the default mark, a quarter of the target, whose refill
		// fetches most of another query's stock that is then thrown away;
		// the offline stock would then last for half as many queries.
		ones := sel.Count()
		var err error
		src, err = stock.NewRemoteSource(stock.RemoteSourceConfig{
			Addr:        e.stockAt,
			Key:         e.sk.Public(),
			TargetZeros: e.w.rows - ones + 1,
			TargetOnes:  ones + 1,
			LowWater:    1,
			Logf:        nolog,
		})
		if err != nil {
			return rec, err
		}
		defer src.Close()
		pctx, cancel := context.WithTimeout(ctx, time.Minute)
		// As in sumclient, a short prefetch is not fatal: missing bits are
		// encrypted online and show up as fallbacks.
		_ = src.Prime(pctx)
		cancel()
		rec.prime = time.Since(rec.start)
		pool = src
		if rec.traced {
			pool = timedPool{EncryptorPool: src, p: c.p}
		}
	}

	var sum *big.Int
	_, err := c.rt.Do(ctx, []string{e.addr}, func(s *cluster.Session) error {
		s.Conn.SetTraceID(rec.id)
		got, err := selectedsum.Query(s.Conn, c.key, sel, e.w.chunk, pool)
		if err != nil {
			return err
		}
		sum = got
		return nil
	})
	if err == nil && sum.Cmp(want) != 0 {
		return rec, fmt.Errorf("%w: %s op %d: sum %v, oracle %v", errWrong, e.w.name, i, sum, want)
	}
	rec.wall = time.Since(rec.start)
	if err != nil {
		rec.failure = failureClass(err)
	}
	rec.up, rec.down = c.meter.up.Load(), c.meter.down.Load()
	if src != nil {
		rec.fallbacks = src.OnlineFallbacks()
	}
	if rec.traced {
		rec.encrypt = time.Duration(c.p.encNanos.Load())
		rec.encRows = c.p.encRows.Load()
		rec.dial = time.Duration(c.p.dialNanos.Load())
		rec.send = time.Duration(c.p.sendNanos.Load())
		rec.upload = c.meter.upload()
		rec.reply = c.meter.replyWait()
		rec.decrypt = time.Duration(c.p.decNanos.Load())
	}
	return rec, nil
}

var codeRE = regexp.MustCompile(`\[([a-z-]+)\]`)

// failureClass names a failed op by its wire error code (busy, timeout,
// shard-unavailable, ...), falling back to a coarse class.
func failureClass(err error) string {
	if code := wire.ErrorCodeFor(err); code != wire.CodeNone {
		return string(code)
	}
	var ex *cluster.ExhaustedError
	if errors.As(err, &ex) {
		return "exhausted"
	}
	if m := codeRE.FindStringSubmatch(err.Error()); m != nil {
		return m[1]
	}
	return "error"
}

// jobPoll is how often a tenant polls its job's status, like sumclient
// -jobd -poll but far shorter than its 200ms default: the poll interval
// bounds how late the client sees a finished job, and so the resolution of
// a job's latency. The status requests cost the gateway some CPU.
const jobPoll = 5 * time.Millisecond

// tenant is one job-submitting client of the gateway's HTTP surface.
type tenant struct {
	id int
	hc *http.Client
}

// jobOp submits one job, polls it to completion and checks the result
// against the oracle.
func (e *env) jobOp(ctx context.Context, t *tenant, i int) (opRecord, error) {
	kind := jobKinds[i%len(jobKinds)]
	k := (i*e.w.clients + t.id) % selectionPool
	sel := e.in.sels[k]
	spec := jobs.JobSpec{Op: kind, Selection: jobs.SelectionSpec{Rows: sel.Indices()}}
	queries := 1
	if kind == jobs.OpGroupBy {
		spec.Params = &jobs.GroupByParams{Labels: e.in.labels, Groups: jobGroups}
		queries = jobGroups
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return opRecord{}, err
	}
	rec := opRecord{client: t.id, index: i, traced: e.exec.p.on.Load(), rows: queries * e.w.rows, queries: queries}
	rec.start = time.Now()

	var job jobs.Job
	status, err := t.do(ctx, http.MethodPost, e.jobsURL, body, &job)
	if err != nil {
		return rec, err
	}
	if status != http.StatusAccepted {
		rec.wall = time.Since(rec.start)
		rec.failure = "http-" + fmt.Sprint(status)
		return rec, nil
	}
	id, err := trace.ParseID(job.ID)
	if err != nil {
		return rec, err
	}
	rec.id = id
	tick := time.NewTicker(jobPoll)
	defer tick.Stop()
	for job.State == jobs.StateQueued || job.State == jobs.StateRunning {
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-tick.C:
		}
		if status, err = t.do(ctx, http.MethodGet, e.jobsURL+"/"+job.ID, nil, &job); err != nil {
			return rec, err
		}
		if status != http.StatusOK {
			return rec, fmt.Errorf("job %s status: HTTP %d", job.ID, status)
		}
	}
	if job.State == jobs.StateFailed {
		rec.wall = time.Since(rec.start)
		rec.failure = failureClass(errors.New(job.Error))
		return rec, nil
	}
	if err := e.checkJob(kind, k, job.Result); err != nil {
		return rec, fmt.Errorf("%w: %s job %s: %v", errWrong, kind, job.ID, err)
	}
	rec.wall = time.Since(rec.start)
	rec.queueWait = job.Started.Sub(job.Submitted)
	rec.exec = job.Finished.Sub(job.Started)
	return rec, nil
}

// do sends one request and decodes a JSON reply into out on success.
func (t *tenant) do(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(jobs.TenantHeader, tenantName(t.id))
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// checkJob compares a job result with exact plaintext arithmetic: the sum,
// the variance as an exact fraction, and every group of a groupby.
func (e *env) checkJob(kind string, k int, res *jobs.Result) error {
	if res == nil {
		return errors.New("no result")
	}
	sel, s, q := e.in.sels[k], e.in.sums[k], e.in.sqs[k]
	m := int64(sel.Count())
	if res.Count != int(m) {
		return fmt.Errorf("count %d, oracle %d", res.Count, m)
	}
	switch kind {
	case jobs.OpSum:
		if res.Sum != s.String() {
			return fmt.Errorf("sum %s, oracle %v", res.Sum, s)
		}
	case jobs.OpVariance:
		bm := big.NewInt(m)
		num := new(big.Int).Sub(new(big.Int).Mul(bm, q), new(big.Int).Mul(s, s))
		variance := new(big.Rat).SetFrac(num, new(big.Int).Mul(bm, bm)).RatString()
		if res.Sum != s.String() || res.SumSquares != q.String() || res.Variance != variance {
			return fmt.Errorf("moments (%s, %s, %s), oracle (%v, %v, %s)", res.Sum, res.SumSquares, res.Variance, s, q, variance)
		}
	case jobs.OpGroupBy:
		sums := make([]*big.Int, jobGroups)
		counts := make([]int, jobGroups)
		for g := range sums {
			sums[g] = new(big.Int)
		}
		for _, row := range sel.Indices() {
			g := e.in.labels[row]
			sums[g].Add(sums[g], big.NewInt(int64(e.in.table.Value(row))))
			counts[g]++
		}
		if len(res.Groups) != jobGroups {
			return fmt.Errorf("%d groups, want %d", len(res.Groups), jobGroups)
		}
		for g, row := range res.Groups {
			if row.Count != counts[g] || row.Sum != sums[g].String() {
				return fmt.Errorf("group %d (%d, %s), oracle (%d, %v)", g, row.Count, row.Sum, counts[g], sums[g])
			}
		}
	}
	return nil
}

// warm runs verified ops through the whole path so that connections,
// goroutines and caches are up before timing starts: one query, or one job
// of each kind. The stocked path warms with online encryption: stock spent
// here would be stock sent twice.
func (e *env) warm(ctx context.Context) error {
	if e.w.jobs {
		t := &tenant{id: 0, hc: &http.Client{Transport: &http.Transport{}}}
		defer t.hc.CloseIdleConnections()
		for i := range jobKinds {
			rec, err := e.jobOp(ctx, t, i)
			if err == nil && rec.failure != "" {
				err = fmt.Errorf("warm-up job failed: %s", rec.failure)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	c := newClient(0, e.sk, false)
	sel := e.in.sels[0]
	var sum *big.Int
	_, err := c.rt.Do(ctx, []string{e.addr}, func(s *cluster.Session) error {
		got, err := selectedsum.Query(s.Conn, c.key, sel, e.w.chunk, nil)
		sum = got
		return err
	})
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	if sum.Cmp(e.in.sums[0]) != 0 {
		return fmt.Errorf("%w: warm-up sum %v, oracle %v", errWrong, sum, e.in.sums[0])
	}
	return nil
}

// drive runs the clients: each issues its next op as soon as the previous
// one completes, until the window closes. Stocked clients instead send
// their fixed number of ops at a fixed rate across the window, and job
// tenants stop only at the end of a job cycle. In a traced run every other op is probed, so
// probed and unprobed ops share the deployment and the time window, and
// their latency ratio is the tracing overhead.
func (e *env) drive(ctx context.Context, window time.Duration, ops int, traced bool) ([]opRecord, time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	deadline := start.Add(window)

	var (
		mu    sync.Mutex
		recs  []opRecord
		fatal error
		last  time.Duration // end of the latest op, from start
		wg    sync.WaitGroup
	)
	loop := func(id int, op func(i int) (opRecord, error), probe *probe) {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			var due time.Time
			if e.w.stockOps > 0 {
				if i >= e.w.stockOps {
					return
				}
				// The clients take turns, so together they send at a fixed
				// rate, one query per slot.
				slot := e.w.clients*i + id
				due = start.Add(window * time.Duration(slot) / time.Duration(e.w.clients*e.w.stockOps))
				if err := waitUntil(ctx, due); err != nil {
					return
				}
			}
			now := time.Now()
			if ops > 0 && i >= ops {
				return
			}
			if ops == 0 && e.w.stockOps == 0 && now.After(deadline) && (!e.w.jobs || i%len(jobKinds) == 0) {
				return
			}
			if traced {
				// Alternate so both halves see the same drift in the host's
				// load. Job ops share the gateway's probe, so they alternate
				// by quarter of the window instead of by op, or by job cycle
				// when the run counts ops rather than time.
				on := i%2 == 1
				if e.w.jobs && ops > 0 {
					on = (i/len(jobKinds))%2 == 1
				} else if e.w.jobs {
					on = int(4*now.Sub(start)/window)%2 == 1
				}
				probe.on.Store(on)
			}
			rec, err := op(i)
			if err != nil {
				mu.Lock()
				if fatal == nil {
					fatal = fmt.Errorf("client %d op %d: %w", id, i, err)
				}
				mu.Unlock()
				cancel()
				return
			}
			if !due.IsZero() {
				// A paced op is timed from when it was due, so an op that
				// overruns its slot also delays the client's next one.
				rec.late = rec.start.Sub(due)
				rec.start, rec.wall = due, rec.wall+rec.late
			}
			mu.Lock()
			recs = append(recs, rec)
			if end := rec.start.Add(rec.wall).Sub(start); end > last {
				last = end
			}
			mu.Unlock()
		}
	}
	for id := 0; id < e.w.clients; id++ {
		wg.Add(1)
		if e.w.jobs {
			t := &tenant{id: id, hc: &http.Client{Transport: &http.Transport{}}}
			defer t.hc.CloseIdleConnections()
			go loop(id, func(i int) (opRecord, error) { return e.jobOp(ctx, t, i) }, e.exec.p)
		} else {
			c := newClient(id, e.sk, traced)
			e.clients = append(e.clients, c)
			go loop(id, func(i int) (opRecord, error) { return e.queryOp(ctx, c, i) }, c.p)
		}
	}
	wg.Wait()
	if e.exec != nil {
		e.exec.p.on.Store(false)
	}
	return recs, last, fatal
}

// waitUntil blocks until t or until ctx ends.
func waitUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
