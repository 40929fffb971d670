package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/colstore"
	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/jobs"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/stock"
	"privstats/internal/trace"
)

// spec is one workload: a deployed path, its key size and its inputs'
// shape. The seed picks the inputs; the programs get only the generated
// tables, selections and job specs.
type spec struct {
	name    string
	why     string
	bits    int
	rows    int
	chunk   int // index-vector batch; 0 sends one chunk
	clients int
	shards  int // 0 queries one sumserver directly, k > 0 a k-shard sumproxy
	// stockOps > 0 primes every query from stockd (as sumclient -stock
	// does) and paces the clients: each sends stockOps queries, taking turns
	// at even intervals across the window, a fixed rate rather than a closed
	// loop. Queries consume stock far faster than it can be made, so a run
	// restores a fixed offline stock for all of them at set-up and spreads
	// them out, sampling the host over the whole window rather than its
	// first few seconds.
	stockOps int
	jobs     bool // ops are sumjobd jobs over colstore-backed shards
}

// workloads are the benchmark's paths, as BENCHMARK.json lists them.
var workloads = []spec{
	{
		name:    "online-2048",
		why:     "direct sumserver, 2048-bit key, own-key CRT online encryption, n=200, chunk 100, 2 clients: client encryption dominates; bypasses cluster and stock",
		bits:    2048,
		rows:    200,
		chunk:   100,
		clients: 2,
	},
	{
		name:     "stocked-k2-512",
		why:      "client primes from stockd per query, then a k=2 sumproxy; 512-bit, n=2048, chunk 512, 2 clients at a fixed rate: fold, wire, combine, stock fetch carry the time; bypasses encryption",
		bits:     512,
		rows:     2048,
		chunk:    512,
		clients:  2,
		shards:   2,
		stockOps: 160,
	},
	{
		name:    "jobs-colstore-512",
		why:     "2 tenants' sum/variance/groupby jobs via sumjobd (journal on) to a k=2 sumproxy over colstore shards, 512-bit, n=1024: planner, queue, journal, 64-bit folds",
		bits:    512,
		rows:    1024,
		clients: 2,
		shards:  2,
		jobs:    true,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// stockPerOp is how many items of each bit value one stocked op takes from
// stockd: its query's rows/2 plus the one spare that keeps the client's
// refill from firing (see queryOp).
func (w spec) stockPerOp() int { return w.rows/2 + 1 }

// stockItems sizes the offline stock: every op of every client, zeros and
// ones separately (every selection picks exactly half the rows).
func (w spec) stockItems() (zeros, ones int) {
	n := w.clients * w.stockOps * w.stockPerOp()
	return n, n
}

// jobKinds is the per-tenant job cycle. A tenant stops only after a whole
// cycle, so every run has the same mix and a deterministic bytes per op.
var jobKinds = []string{jobs.OpSum, jobs.OpVariance, jobs.OpGroupBy}

const jobGroups = 4

// inputs are everything the seed decides.
type inputs struct {
	table  *database.Table
	sels   []*database.Selection
	sums   []*big.Int // oracle Σx over each selection
	sqs    []*big.Int // oracle Σx² over each selection
	labels []int      // groupby strata, public schema
}

// selectionPool is how many distinct selections a run cycles through.
const selectionPool = 32

func makeInputs(w spec, seed int64) (*inputs, error) {
	table, err := database.Generate(w.rows, database.DistUniform, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{table: table}
	for i := 0; i < selectionPool; i++ {
		sel, err := database.GenerateSelection(w.rows, w.rows/2, database.PatternRandom, seed*selectionPool+int64(i)+1)
		if err != nil {
			return nil, err
		}
		sum, err := table.SelectedSum(sel)
		if err != nil {
			return nil, err
		}
		sq, err := table.SelectedSumOfSquares(sel)
		if err != nil {
			return nil, err
		}
		in.sels = append(in.sels, sel)
		in.sums = append(in.sums, sum)
		in.sqs = append(in.sqs, sq)
	}
	if w.jobs {
		// Round-robin strata, shuffled by the seed: every group is non-empty
		// under every half selection, so a groupby always plans jobGroups
		// queries.
		rng := rand.New(rand.NewSource(seed))
		in.labels = make([]int, w.rows)
		for i, j := range rng.Perm(w.rows) {
			in.labels[j] = i % jobGroups
		}
	}
	return in, nil
}

// env is one running deployment of a workload, all in this process on
// loopback TCP.
type env struct {
	w   spec
	in  *inputs
	sk  *paillier.PrivateKey
	dir string

	servers []*server.Server // every session runtime, for the completion barrier
	serveCh []chan error
	direct  *server.Server   // online: the one sumserver
	shards  []*server.Server // cluster: the shard backends
	proxy   *server.Server   // cluster: the aggregator (sumproxy)
	fanout  *cluster.Client  // the aggregator's fan-out client
	stockd  *server.Server
	inv     *stock.Inventory
	addr    string // where query clients connect
	stockAt string

	gateway  *jobs.Gateway
	httpSrv  *http.Server
	httpDone chan error
	jobsURL  string
	gwTraces *trace.Recorder
	exec     *client   // the gateway's protocol client: its key and connection probes
	clients  []*client // the query clients drive started
}

// ringSize bounds each daemon's trace ring; a run records far fewer traces.
const ringSize = 1 << 15

func nolog(string, ...any) {}

// serve starts srv on a fresh loopback listener.
func (e *env) serve(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	e.servers = append(e.servers, srv)
	e.serveCh = append(e.serveCh, done)
	return ln.Addr().String(), nil
}

func newServer(h server.Handler) (*server.Server, error) {
	return server.NewHandler(h, server.Config{Logf: nolog, Traces: trace.NewRecorder(ringSize)})
}

// deploy stands the workload's daemons up in dir. Daemons keep their trace
// rings on in every run, as a deployment with -trace-ring does; only traced
// runs read them.
func deploy(w spec, in *inputs, fx *fixture, dir string, probeExec bool) (e *env, err error) {
	e = &env{w: w, in: in, sk: fx.sk, dir: dir}
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.shards == 0 {
		srv, err := server.NewSource(in.table, server.Config{Logf: nolog, Traces: trace.NewRecorder(ringSize)})
		if err != nil {
			return nil, err
		}
		e.direct = srv
		if e.addr, err = e.serve(srv); err != nil {
			return nil, err
		}
	} else if err := e.deployCluster(); err != nil {
		return nil, err
	}
	if w.stockOps > 0 {
		if err := e.deployStock(fx.stockDir); err != nil {
			return nil, err
		}
	}
	if w.jobs {
		if err := e.deployGateway(probeExec); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// deployCluster starts k shard backends over contiguous slices and the
// aggregator in front of them. Job workloads serve their shards from
// colstore directories opened read-only, as sumserver -table-dir does.
func (e *env) deployCluster() error {
	k, n := e.w.shards, e.in.table.Len()
	var shards []cluster.Shard
	for i, lo := 0, 0; i < k; i++ {
		hi := lo + n/k
		if i < n%k {
			hi++
		}
		part, err := e.in.table.Shard(lo, hi)
		if err != nil {
			return err
		}
		var src database.Source = part
		if e.w.jobs {
			if src, err = buildColumnShard(part, filepath.Join(e.dir, "shard"+strconv.Itoa(i)), lo); err != nil {
				return err
			}
		}
		srv, err := server.NewSource(src, server.Config{Logf: nolog, Traces: trace.NewRecorder(ringSize)})
		if err != nil {
			return err
		}
		addr, err := e.serve(srv)
		if err != nil {
			return err
		}
		e.shards = append(e.shards, srv)
		shards = append(shards, cluster.Shard{Lo: lo, Hi: hi, Backends: []string{addr}})
		lo = hi
	}
	sm, err := cluster.NewShardMap(shards)
	if err != nil {
		return err
	}
	e.fanout = cluster.NewClient(cluster.ClientConfig{})
	agg, err := cluster.NewAggregator(sm, e.fanout)
	if err != nil {
		return err
	}
	if e.proxy, err = newServer(agg); err != nil {
		return err
	}
	e.addr, err = e.serve(e.proxy)
	return err
}

// columnBlockRows splits each shard's column into several on-disk blocks,
// so the fold reads through the store's block cache rather than its
// in-memory tail.
const columnBlockRows = 128

func buildColumnShard(part *database.Table, dir string, base int) (database.Source, error) {
	st, err := colstore.BuildFrom(part, dir, colstore.Options{BlockRows: columnBlockRows, BaseRow: uint64(base)})
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return colstore.Open(dir, colstore.Options{ReadOnly: true})
}

// deployStock starts stockd restoring the fixture's offline stock. Its
// refill target is one item, so it mints nothing while the stock lasts: the
// run measures serving precomputed stock, not generating it.
func (e *env) deployStock(fixtureStock string) error {
	stateDir := filepath.Join(e.dir, "stockd")
	if err := linkStock(fixtureStock, stateDir); err != nil {
		return err
	}
	inv, err := stock.NewInventory(stock.InventoryConfig{
		Targets:  stock.Targets{Zeros: 1, Ones: 1},
		StateDir: stateDir,
		Logf:     nolog,
	})
	if err != nil {
		return err
	}
	e.inv = inv
	sum, err := inv.RestoreAll()
	if err != nil {
		return err
	}
	zeros, ones := e.w.stockItems()
	z, o, _, ok := inv.Depths(e.sk.Public())
	if !ok || sum.Stale > 0 || z < zeros || o < ones {
		return fmt.Errorf("stockd restored %d zeros, %d ones (%d stale files); the fixture holds %d each", z, o, sum.Stale, zeros)
	}
	if e.stockd, err = newServer(&stock.Handler{Inv: inv}); err != nil {
		return err
	}
	e.stockAt, err = e.serve(e.stockd)
	return err
}

// deployGateway starts sumjobd's gateway with its journal on (every record
// fsynced before it is acknowledged) and its HTTP surface on loopback.
func (e *env) deployGateway(probeExec bool) error {
	e.exec = newClient(-1, e.sk, probeExec)
	e.gwTraces = trace.NewRecorder(ringSize)
	exec := &jobs.Executor{
		Client:    e.exec.rt,
		Backends:  []string{e.addr},
		Key:       e.exec.key,
		ChunkSize: e.w.chunk,
		Traces:    e.gwTraces,
	}
	var tenants []jobs.Tenant
	for i := 0; i < e.w.clients; i++ {
		tenants = append(tenants, jobs.Tenant{Name: tenantName(i), Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 4})
	}
	g, err := jobs.NewGateway(jobs.GatewayConfig{
		Schema:   jobs.Schema{Rows: e.w.rows, Columns: []string{"value"}},
		Exec:     exec,
		Tenants:  tenants,
		Slots:    e.w.clients,
		StoreDir: filepath.Join(e.dir, "journal"),
	})
	if err != nil {
		return err
	}
	e.gateway = g
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.httpSrv = &http.Server{Handler: server.StatsMux(server.StatsMuxConfig{Jobs: g.Handler(), Traces: e.gwTraces})}
	e.httpDone = make(chan error, 1)
	go func() { e.httpDone <- e.httpSrv.Serve(ln) }()
	e.jobsURL = "http://" + ln.Addr().String() + "/jobs"
	return nil
}

func tenantName(i int) string { return "tenant" + strconv.Itoa(i) }

// close stops every daemon gracefully, front to back. A graceful server
// shutdown returns only once each session has been accounted (counters
// bumped, trace recorded), which makes it the completion barrier for the
// daemon-side numbers read after it.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.httpDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.gateway != nil {
		e.gateway.Close()
	}
	// Front to back: the proxy's sessions finish before its shards'.
	for i := len(e.servers) - 1; i >= 0; i-- {
		if e.servers[i] == e.stockd {
			continue
		}
		errs = append(errs, e.shutdown(i))
	}
	for i, srv := range e.servers {
		if srv == e.stockd {
			errs = append(errs, e.shutdown(i))
		}
	}
	if e.inv != nil {
		errs = append(errs, e.inv.Close())
	}
	return errors.Join(errs...)
}

func (e *env) shutdown(i int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.servers[i].Shutdown(ctx)
	if serr := <-e.serveCh[i]; !errors.Is(serr, server.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// settle is the completion barrier inside a run: it waits until every
// daemon has accounted each session it started. The runtime bumps its
// counters after flushing the reply, so a client holding its answer can
// still find them one short. It spins on the counters with a deadline
// instead of sleeping a guessed interval.
func (e *env) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, srv := range e.servers {
			m := srv.Metrics()
			pending += int(m.SessionsStarted.Value() - m.SessionsCompleted.Value() - m.SessionsFailed.Value())
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d sessions still unaccounted after %v", pending, timeout)
		}
		runtime.Gosched()
	}
}

// client is one closed-loop load generator: its own runtime (connection
// slots, retries) and, when probed, its own timing probes.
type client struct {
	id    int
	rt    *cluster.Client
	key   homomorphic.PrivateKey
	p     *probe
	meter *connMeter
}

func newClient(id int, sk *paillier.PrivateKey, probed bool) *client {
	c := &client{id: id, p: new(probe)}
	c.meter = &connMeter{p: c.p}
	c.key = paillier.SchemeKey{SK: sk}
	if probed {
		c.key = probeKey(c.key, c.p)
	}
	dialer := net.Dialer{Timeout: cluster.DefaultDialTimeout}
	c.rt = cluster.NewClient(cluster.ClientConfig{
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			start := c.p.begin()
			conn, err := dialer.DialContext(ctx, network, addr)
			if !start.IsZero() {
				c.p.dialNanos.Add(int64(time.Since(start)))
			}
			if err != nil {
				return nil, err
			}
			return meteredConn{Conn: conn, m: c.meter}, nil
		},
	})
	return c
}
