package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// The serve-mix request classes. Each client sends them in rounds of
// three, one of each class in a seeded shuffled order. No traffic source
// exists to take a mix from: the equal shares are an assumption, the
// mix with no preference among the three classes the workload names.
// With equal shares the classes sort into thirds by latency (a hit
// under a millisecond, an edit a little less than a cold solve), so
// op_ms.p10 falls among the hits, op_ms.p50 among the edits and
// op_ms.p90 among the cold solves, and each class has a bounded metric
// of its own.
var serveRound = []string{"hit", "cold", "edit"}

const (
	serveN     = 20
	serveDelay = 2500
	// Specs per class. Each client owns editsPerClient live instances,
	// so no two clients ever edit the same one, and edits them in turn.
	// Few instances keep the gap between two edits of one instance
	// short: the next edit patches the previous version's DTS and
	// auxiliary graph only while the daemon's 32-entry memos still hold
	// them, and every cold solve and edit in between adds an entry.
	hitSpecs, coldSpecs, editsPerClient = 6, 16, 4
)

// editOp is one /edit operation, in the daemon's JSON shape.
type editOp struct {
	Op      string  `json:"op"`
	I       int     `json:"i"`
	J       int     `json:"j"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Dist    float64 `json:"dist,omitempty"`
	ToStart float64 `json:"to_start,omitempty"`
	ToEnd   float64 `json:"to_end,omitempty"`
}

// spec is one distinct serve-mix request with its reference schedule:
// the facade's schedule envelope for the same request, compacted as the
// daemon sends it.
type spec struct {
	in  *instance
	ref []byte
}

// editChain is one live instance's edit stream. Its ops repeat with
// period len(cycle) — add a contact, retime it, remove it — so after
// every full cycle the graph holds the base contacts again and the
// schedule after k ops is refs[(k-1) % len(cycle)].
type editChain struct {
	in      *instance
	cycle   []editOp
	refs    [][]byte
	applied int
}

// serveSetup is the state one serve-mix set-up builds.
type serveSetup struct {
	d           *daemon
	insts       []*instance
	hits, colds []spec
	chains      [][]*editChain // per client
	energy      []float64
	delivery    []float64
	refs        [][]byte
}

// runServeMix drives a tmedbd built from the tree through its HTTP API
// with a closed loop of clients, each waiting for its reply before
// sending the next request.
func runServeMix(cfg config) (*outcome, error) {
	out := newOutcome()
	var st *serveSetup
	err := timeSetup(out, func() (err error) {
		if st != nil {
			st.d.stop()
		}
		st, err = setupServe(cfg)
		return err
	})
	if st != nil {
		defer st.d.stop()
	}
	if err != nil {
		return nil, err
	}
	out.detail["digest"] = digest(st.refs)
	out.detail["inputs"] = inputDigest(st.insts)
	out.metrics["energy_norm"] = geomean(st.energy)
	out.metrics["delivery_ratio"] = mean(st.delivery)

	clients := make([]*client, cfg.workers)
	for c := range clients {
		clients[c] = &client{
			base:   "http://" + st.d.addr,
			http:   &http.Client{Timeout: 60 * time.Second},
			rng:    rand.New(rand.NewSource(cfg.seed*1000 + int64(c))),
			st:     st,
			chains: st.chains[c],
		}
	}
	var opMS []float64
	var elapsed time.Duration
	if cfg.traced {
		// Traced phase first, so its first requests start from the
		// set-up state and their work counts repeat.
		runClients(clients, cfg.seconds/2, true)
		for _, c := range clients {
			c.tracedLog, c.log = c.log, nil
		}
		runClients(clients, cfg.seconds/2, false)
		if err := serveLayers(out, clients, st.d); err != nil {
			return nil, err
		}
	} else {
		elapsed = runClients(clients, cfg.seconds, false)
		for _, c := range clients {
			for _, r := range c.log {
				if !r.ok {
					r.ms = cfg.seconds * 1000
				}
				opMS = append(opMS, r.ms)
			}
		}
	}
	for _, c := range clients {
		for _, msg := range c.errs {
			out.fail("%s", msg)
		}
	}
	out.attempted = requests(clients)
	if !cfg.traced {
		setLatency(out, opMS, elapsed)
		for _, class := range []string{"hit", "cold", "edit"} {
			xs := classMS(clients, class, false)
			out.detail["serve."+class+"_ms.p50"] = quantile(xs, 0.5)
			out.detail["serve."+class+"_ms.samples"] = len(xs)
		}
	}
	self, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	srv, err := peakRSSMB(strconv.Itoa(st.d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	out.metrics["mem.peak_mb"] = self + srv
	return out, nil
}

// setupServe generates the request specs, computes every reference
// schedule through the facade, starts the daemon, and primes it: the
// hit specs fill the schedule cache and each edit chain applies its
// first op, so every measured edit extends a live instance by one op.
func setupServe(cfg config) (*serveSetup, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	st := &serveSetup{}
	nHit, nCold, nEdit := hitSpecs, coldSpecs, editsPerClient
	if cfg.small {
		nHit, nCold, nEdit = 1, 1, 1
	}
	insts, err := genInstances(rng, []class{
		{n: serveN, delay: serveDelay, count: nHit},
		{n: serveN, delay: serveDelay, count: nCold},
		{n: serveN, delay: serveDelay, count: nEdit * cfg.workers},
	}, []string{"eedcb", "fr-eedcb"})
	if err != nil {
		return nil, err
	}
	st.insts = insts
	for k, in := range insts[:nHit+nCold] {
		ref, err := st.reference(cfg, in, nil)
		if err != nil {
			return nil, err
		}
		if k < nHit {
			st.hits = append(st.hits, spec{in: in, ref: ref})
		} else {
			st.colds = append(st.colds, spec{in: in, ref: ref})
		}
	}
	st.chains = make([][]*editChain, cfg.workers)
	for k, in := range insts[nHit+nCold:] {
		ch, err := st.newChain(cfg, rng, in)
		if err != nil {
			return nil, err
		}
		st.chains[k/nEdit] = append(st.chains[k/nEdit], ch)
	}

	d, err := startDaemon(cfg.daemon, cfg.workers)
	if err != nil {
		return nil, err
	}
	st.d = d
	cl := &client{base: "http://" + d.addr, http: &http.Client{Timeout: 60 * time.Second}, st: st}
	for _, s := range st.hits {
		cl.solve("prime", s, false, false)
	}
	for _, chains := range st.chains {
		for _, ch := range chains {
			cl.edit(ch, false)
		}
	}
	if len(cl.errs) > 0 {
		d.stop()
		return nil, fmt.Errorf("priming the daemon: %s", cl.errs[0])
	}
	return st, nil
}

// reference plans the instance through the facade on a fresh graph with
// ops applied, and returns the envelope the daemon must answer with.
func (st *serveSetup) reference(cfg config, in *instance, ops []editOp) ([]byte, error) {
	g := in.graph()
	for k, op := range ops {
		if err := applyOp(g, op); err != nil {
			return nil, fmt.Errorf("edit op %d: %w", k, err)
		}
	}
	s, err := planner(in.alg, 0, cfg.workers, nil).Schedule(g, tmedb.NodeID(in.src), t0, in.deadline())
	enc, err := checkSchedule(g, in, s, err)
	if err != nil {
		return nil, err
	}
	st.refs = append(st.refs, enc)
	// One quality sample per instance: an edit chain's schedules differ
	// by one contact at most.
	if len(ops) <= 1 {
		st.energy = append(st.energy, s.NormalizedCost(g.Params.GammaTh))
		st.delivery = append(st.delivery, plannedDelivery(g, in, s))
	}
	var buf bytes.Buffer
	meta := &tmedb.ScheduleMeta{
		Algorithm: in.alg,
		Model:     "rayleigh",
		Trace:     fmt.Sprintf("synthetic(n=%d,seed=%d)", in.n, in.traceSeed),
		Src:       in.src,
		T0:        t0,
		Deadline:  in.deadline(),
	}
	if err := tmedb.WriteScheduleJSONMeta(&buf, s, meta); err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil, err
	}
	return compact.Bytes(), nil
}

// applyOp applies one edit to a graph as the daemon does, and insists
// that it changed the graph.
func applyOp(g *tmedb.Graph, op editOp) error {
	i, j := tmedb.NodeID(op.I), tmedb.NodeID(op.J)
	iv := tmedb.Interval{Start: op.Start, End: op.End}
	changed := true
	var err error
	switch op.Op {
	case "add":
		g.AddContact(i, j, iv, op.Dist)
	case "remove":
		changed = g.RemoveContact(i, j, iv)
	default:
		changed, err = g.RetimeChannel(i, j, iv, tmedb.Interval{Start: op.ToStart, End: op.ToEnd})
	}
	if err == nil && !changed {
		err = fmt.Errorf("%s left the graph unchanged", op.Op)
	}
	return err
}

// newChain draws a contact window on one of the instance source's pairs
// that no base contact comes near, and computes the reference schedule
// after each op of one cycle.
func (st *serveSetup) newChain(cfg config, rng *rand.Rand, in *instance) (*editChain, error) {
	for attempt := 0; attempt < 100; attempt++ {
		j := (in.src + 1 + rng.Intn(serveN-1)) % serveN
		a := float64(t0 + 100 + rng.Intn(int(serveDelay)-600))
		if pairBusy(in.trace, in.src, j, a-30, a+300) {
			continue
		}
		ch := &editChain{in: in, cycle: []editOp{
			{Op: "add", I: in.src, J: j, Start: a, End: a + 180, Dist: 7},
			{Op: "retime", I: in.src, J: j, Start: a, End: a + 180, ToStart: a + 90, ToEnd: a + 270},
			{Op: "remove", I: in.src, J: j, Start: a + 90, End: a + 270},
		}}
		for k := 1; k <= len(ch.cycle); k++ {
			ref, err := st.reference(cfg, in, ch.ops(k))
			if err != nil {
				return nil, err
			}
			ch.refs = append(ch.refs, ref)
		}
		return ch, nil
	}
	return nil, fmt.Errorf("no free contact window for an edit chain from v%d", in.src)
}

// ops returns the chain's first k ops.
func (ch *editChain) ops(k int) []editOp {
	out := make([]editOp, k)
	for i := range out {
		out[i] = ch.cycle[i%len(ch.cycle)]
	}
	return out
}

// pairBusy reports whether any contact of the pair overlaps [lo, hi].
func pairBusy(tr *tmedb.Trace, a, b int, lo, hi float64) bool {
	for _, c := range tr.Contacts {
		if ((c.I == a && c.J == b) || (c.I == b && c.J == a)) && c.Start <= hi && c.End >= lo {
			return true
		}
	}
	return false
}

// daemon is a running tmedbd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	once sync.Once
}

// startDaemon starts tmedbd on a kernel-chosen loopback port with one
// solve slot per client and a flight recorder large enough to keep
// every request of a run, and waits until it serves.
func startDaemon(bin string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-max-concurrent", strconv.Itoa(workers), "-flight", "16384")
	// The kernel kills the daemon should the benchmark die first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tmedbd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "tmedbd: serving on http://"); ok {
				addr <- rest
			}
		}
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("tmedbd exited before serving")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("tmedbd did not start serving")
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// get fetches a daemon endpoint's body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// sent is one completed request.
type sent struct {
	class  string
	ms     float64
	ok     bool
	reqID  string
	report *obs.Report
	edit   *editSummary
}

// editSummary is the part of an /edit reply's edit summary the traced
// run reads.
type editSummary struct {
	Ops     int  `json:"ops"`
	Reused  int  `json:"reused"`
	Rebuilt bool `json:"rebuilt"`
}

// client is one closed-loop caller.
type client struct {
	base      string
	http      *http.Client
	rng       *rand.Rand
	st        *serveSetup
	chains    []*editChain
	edits     int // edits sent; the client edits its chains in turn
	order     []string
	log       []sent
	tracedLog []sent
	errs      []string
}

// runClients runs every client's closed loop for seconds, and for at
// least firstPassRequests requests each, and returns the elapsed time.
func runClients(clients []*client, seconds float64, report bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for k := 0; k < firstPassRequests || time.Since(start).Seconds() < seconds; k++ {
				c.next(report)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// next sends the client's next request of its seeded stream.
func (c *client) next(report bool) {
	if len(c.order) == 0 {
		c.order = append([]string(nil), serveRound...)
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	}
	class := c.order[0]
	c.order = c.order[1:]
	switch class {
	case "hit":
		c.solve(class, c.st.hits[c.rng.Intn(len(c.st.hits))], false, report)
	case "cold":
		c.solve(class, c.st.colds[c.rng.Intn(len(c.st.colds))], true, report)
	default:
		c.edit(c.chains[c.edits%len(c.chains)], report)
		c.edits++
	}
}

// request is the JSON body of a /solve or /edit request.
type request struct {
	Alg       string         `json:"alg"`
	Model     string         `json:"model"`
	Synthetic map[string]any `json:"synthetic"`
	Src       int            `json:"src"`
	T0        float64        `json:"t0"`
	Delay     float64        `json:"delay"`
	NoCache   bool           `json:"no_cache,omitempty"`
	Report    bool           `json:"report,omitempty"`
	Edits     []editOp       `json:"edits,omitempty"`
}

func newRequest(in *instance, noCache, report bool) request {
	return request{
		Alg: in.alg, Model: "rayleigh",
		Synthetic: map[string]any{"n": in.n, "seed": in.traceSeed},
		Src:       in.src, T0: t0, Delay: in.delay,
		NoCache: noCache, Report: report,
	}
}

func (c *client) solve(class string, s spec, noCache, report bool) {
	c.do(class, "/solve", newRequest(s.in, noCache, report), s.ref)
}

// edit extends the chain's live instance by one op. Edits bypass the
// schedule cache: every edit sequence is new, so caching would only
// evict the hit specs.
func (c *client) edit(ch *editChain, report bool) {
	ch.applied++
	req := newRequest(ch.in, true, report)
	req.Edits = ch.ops(ch.applied)
	c.do("edit", "/edit", req, ch.refs[(ch.applied-1)%len(ch.cycle)])
}

// do sends one request, times it, and checks the reply against ref.
func (c *client) do(class, path string, req request, ref []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	start := time.Now()
	r := sent{class: class}
	var reply struct {
		ReqID    string          `json:"req_id"`
		Schedule json.RawMessage `json:"schedule"`
		Cache    string          `json:"cache"`
		Report   *obs.Report     `json:"report"`
		Edit     *editSummary    `json:"edit"`
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		default:
			err = json.Unmarshal(raw, &reply)
		}
	}
	r.ms = ms(time.Since(start))
	if err == nil {
		err = sameSchedule(reply.Schedule, ref, req.Report)
	}
	if err == nil && class == "hit" && reply.Cache != "hit" {
		err = fmt.Errorf("cache %q for a primed spec", reply.Cache)
	}
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", class, path, err))
	} else {
		r.ok = true
		r.reqID, r.report, r.edit = reply.ReqID, reply.Report, reply.Edit
	}
	if class != "prime" {
		c.log = append(c.log, r)
	}
}

// sameSchedule compares a reply's schedule envelope with the facade's.
// Untraced replies must match byte for byte. A reply to a report request
// also carries the server's phase times in its meta block; those are
// dropped from both sides before comparing.
func sameSchedule(got, want []byte, report bool) error {
	if report {
		var err error
		if got, err = withoutPhaseTimes(got); err != nil {
			return err
		}
		if want, err = withoutPhaseTimes(want); err != nil {
			return err
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("schedule differs from the facade's")
	}
	return nil
}

// withoutPhaseTimes re-encodes a schedule envelope without meta.phase_ms.
func withoutPhaseTimes(envelope []byte) ([]byte, error) {
	var env, meta map[string]json.RawMessage
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(env["meta"], &meta); err != nil {
		return nil, err
	}
	delete(meta, "phase_ms")
	b, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	env["meta"] = b
	return json.Marshal(env)
}

// requests counts the measured requests.
func requests(clients []*client) int {
	n := 0
	for _, c := range clients {
		n += len(c.tracedLog) + len(c.log)
	}
	return n
}

// classMS returns the latencies of one request class, from the traced
// or the untraced requests.
func classMS(clients []*client, class string, traced bool) []float64 {
	var out []float64
	for _, c := range clients {
		log := c.log
		if traced {
			log = c.tracedLog
		}
		for _, r := range log {
			if r.class == class {
				out = append(out, r.ms)
			}
		}
	}
	return out
}

// firstPassRequests is how many of each client's first traced requests
// make up the run's first pass, whose work counts must repeat: two
// rounds of serveRound.
const firstPassRequests = 6

// serveLayers derives the per-layer metrics of a traced serve-mix run
// from the server's per-request reports, its flight recorder and its
// /metrics page.
func serveLayers(out *outcome, clients []*client, d *daemon) error {
	var flight struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	body, err := d.get("/debug/requests")
	if err != nil {
		return fmt.Errorf("flight recorder: %w", err)
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		return fmt.Errorf("flight recorder: %w", err)
	}
	serverMS := map[string]float64{}
	for _, r := range flight.Requests {
		serverMS[r.ID] = r.DurationMS
	}

	first, all := newLayerTally(), newLayerTally()
	var server, overhead, solveServer []float64
	var reused, ops, rebuilt, solves int
	for _, c := range clients {
		for k, r := range c.tracedLog {
			if !r.ok {
				continue
			}
			if s, ok := serverMS[r.reqID]; ok {
				server = append(server, s)
				overhead = append(overhead, r.ms-s)
				if r.class != "hit" {
					solveServer = append(solveServer, s)
				}
			}
			if k < firstPassRequests {
				out.counts["serve.requests"]++
			}
			if r.report != nil {
				solves++
				all.add(*r.report)
				if k < firstPassRequests {
					first.add(*r.report)
					out.counts["serve.solves"]++
				}
			}
			if r.edit != nil {
				reused += r.edit.Reused
				ops += r.edit.Ops
				if r.edit.Rebuilt {
					rebuilt++
				}
			}
		}
	}
	setLayers(out, first, all, solves)
	out.metrics["tmedbd.server_ms"] = mean(server)
	out.metrics["serve.client_overhead_ms"] = mean(overhead)
	if ops > 0 {
		out.metrics["tmedbd.edit.reused_share"] = float64(reused) / float64(ops)
	}
	out.metrics["tmedbd.edit.rebuilt"] = float64(rebuilt)
	out.metrics["trace.remainder_ms"] = mean(solveServer) - all.solveLayersMS()/float64(max(solves, 1))

	prom, err := d.get("/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	m := parseProm(prom)
	if n := m["tmedbd_queue_wait_ms_count"]; n > 0 {
		out.metrics["tmedbd.queue_wait_ms"] = m["tmedbd_queue_wait_ms_sum"] / n
	}
	if h, miss := m["tmedbd_cache_hits"], m["tmedbd_cache_misses"]; h+miss > 0 {
		out.metrics["tmedbd.cache.hit_rate"] = h / (h + miss)
	}

	for _, class := range []string{"hit", "cold", "edit"} {
		xs := classMS(clients, class, false)
		out.metrics["serve."+class+"_ms.p50"] = quantile(xs, 0.5)
		out.detail["serve."+class+"_ms.samples"] = len(xs)
	}
	var tracedMS, untracedMS []float64
	for _, c := range clients {
		for _, r := range c.tracedLog {
			tracedMS = append(tracedMS, r.ms)
		}
		for _, r := range c.log {
			untracedMS = append(untracedMS, r.ms)
		}
	}
	out.metrics["trace.op_ms"] = mean(tracedMS)
	out.metrics["trace.overhead_share"] = mean(tracedMS)/mean(untracedMS) - 1
	return nil
}

// parseProm reads the unlabelled samples of a Prometheus text page.
func parseProm(page []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
